"""Command-line surface: compute canonical forms, enumerate the monoid, and
run the verification suites.

Exit codes: 0 on success, 1 on verification failure, 2 on usage errors and
when stdout cannot be written (a closed pipe or a full device).
The alphabet size is always passed explicitly (-n) because the involution
and evacuation depend on the ambient alphabet, not just on the letters used.
Each command imports the modules it runs when it starts, so `enumerate`
never loads the verification suites and start-up stays short.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

# The suites of `verify.SUITES`, in order; written out so that building the
# parser imports no suite (a test keeps the two equal).
SUITE_NAMES = ("bijection", "presentation", "evacuation", "graded", "syntactic", "confluence")

ENUMERATION_DEFAULT_CAP = 6
# --maxlen bounds only the plactic separators, which cap it at 4, so every
# value from 4 up runs the same check: on a 2-vCPU x86 host `verify
# syntactic -n 3 --maxlen 8` takes about 0.2 s from the shell, as at 4.
VERIFY_MAXLEN_CAP = 8

COMPUTE_KINDS = ("P", "N", "pi", "evac", "theta", "delta", "jdt")

# Linux's default pipe-max-size: the largest pipe an unprivileged process may
# ask for.
PIPE_BYTES = 1 << 20


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="styl",
        description="Schensted combinatorics and the finite monoid of the column action",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute a canonical form")
    compute.add_argument("kind", choices=COMPUTE_KINDS)
    compute.add_argument("input", help="word, partition (a/bc or 13/28), or skew JSON")
    compute.add_argument("-n", type=int, required=True, help="alphabet size")
    compute.add_argument("--json", action="store_true", dest="as_json")

    enum = sub.add_parser("enumerate", help="enumerate the monoid")
    enum.add_argument("what", choices=("monoid", "idempotents", "jorder"))
    enum.add_argument("-n", type=int, required=True)
    enum.add_argument("--json", action="store_true", dest="as_json")
    enum.add_argument("--dot", action="store_true")
    enum.add_argument("--force", action="store_true", help="allow n = 7")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=(*SUITE_NAMES, "all"))
    verify.add_argument("-n", type=int, required=True)
    verify.add_argument(
        "--maxlen", type=int, default=6,
        help="longest word in the plactic separators (n <= 3, capped at 4), "
        f"and nothing else (1 to {VERIFY_MAXLEN_CAP})",
    )
    verify.add_argument(
        "--seed", type=int, default=0,
        help="seed of the evacuation suite's random jdt skews, and nothing else",
    )
    verify.add_argument("--force", action="store_true", help="allow n = 7")
    return parser


def _enumeration_cap(args) -> None:
    from .monoid import ENUMERATION_CEILING

    cap = ENUMERATION_CEILING if args.force else ENUMERATION_DEFAULT_CAP
    if args.n > cap:
        raise ValueError(
            f"n = {args.n} exceeds the ceiling {cap} of {args.command}"
            + ("" if args.force else f" (use --force for {ENUMERATION_CEILING})")
        )


def _cmd_compute(args) -> int:
    import json

    from .core import Alphabet, parse_word, render_word, theta
    from .evacuation import delta_direct, evac, evac_via_pyramid, jdt, skew_from_json
    from .monoid import n_tableau, parse_partition, pi
    from .tableaux import p_tableau

    alphabet = Alphabet(args.n)
    digits = any(ch.isdigit() for ch in args.input)
    if args.kind in ("P", "N", "pi", "theta"):
        word = parse_word(args.input)
        alphabet.check_word(word)
    elif args.kind in ("delta", "evac"):
        partition = parse_partition(args.input, alphabet)
    if args.kind == "P":
        tableau = p_tableau(word)
        print(json.dumps(tableau.to_json()) if args.as_json else tableau.render())
    elif args.kind == "N":
        tableau = n_tableau(word)
        print(json.dumps(tableau.to_json()) if args.as_json else tableau.render())
    elif args.kind == "theta":
        image = theta(word, alphabet)
        print(json.dumps({"word": render_word(image)}) if args.as_json else (render_word(image) or "1"))
    elif args.kind == "pi":
        partition = pi(word)
        print(json.dumps(partition.to_json()) if args.as_json else partition.render(digits))
    elif args.kind == "delta":
        image = delta_direct(partition)
        print(json.dumps(image.to_json()) if args.as_json else image.render(digits))
    elif args.kind == "evac":
        chain = []
        current = partition
        while current.block_count():
            chain.append(current)
            current = delta_direct(current)
        result = evac(partition, alphabet)
        if result != evac_via_pyramid(partition, alphabet):
            print("error: evac disagrees with the growth pyramid", file=sys.stderr)
            return 1
        if args.as_json:
            print(
                json.dumps(
                    {
                        "deltaChain": [r.to_json() for r in chain],
                        "evac": result.to_json(),
                    }
                )
            )
        else:
            for i, r in enumerate(chain):
                print(f"delta^{i}: {r.render(digits)}")
            print(f"evac:    {result.render(digits)}")
    elif args.kind == "jdt":
        try:
            data = json.loads(args.input)
        except RecursionError:
            raise ValueError("skew JSON is nested too deeply") from None
        skew = skew_from_json(data)
        digits = any(str(letter).isdigit() for _, letter in data.get("labels", []))
        alphabet.check_word(skew.label_map().values())
        partition = jdt(skew)
        print(json.dumps(partition.to_json()) if args.as_json else partition.render(digits))
    return 0


def _peak_rss_mib() -> float:
    """Peak resident memory of this process.  On Linux ru_maxrss carries
    over the high-water mark of the process that spawned this one, so
    VmHWM in /proc/self/status comes first where it exists; ru_maxrss is
    in KiB on Linux and in bytes on macOS."""
    with contextlib.suppress(OSError):
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / (1 << 10)
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _widen_pipe(stream) -> None:
    """Ask for a PIPE_BYTES pipe when `stream` writes into a smaller one, so
    that a large export runs ahead of a reader that takes large blocks (lz4
    fills 4 MB blocks) instead of waiting on it every 64 KiB.  Anything
    else is left as it is: no fcntl or no F_GETPIPE_SZ (not Linux), a stream
    with no descriptor, a descriptor that is not a pipe (EBADF), and a
    refused request."""
    # io.UnsupportedOperation, which fileno() raises on an in-memory stream,
    # is both an OSError and a ValueError.
    with contextlib.suppress(ImportError, AttributeError, OSError, ValueError):
        import fcntl

        fd = stream.fileno()
        if fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) < PIPE_BYTES:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)


def _cmd_enumerate(args) -> int:
    import json

    from .core import Alphabet, render_letter
    from .monoid import ENUMERATION_CEILING, enumerate_styl

    if args.dot and args.what != "jorder":
        raise ValueError(f"--dot draws the jorder diagram, not {args.what}")
    if args.dot and args.as_json:
        raise ValueError("--dot and --json are two formats; choose one")
    _enumeration_cap(args)
    _widen_pipe(sys.stdout)
    alphabet = Alphabet(args.n)
    monoid = enumerate_styl(alphabet)
    wrote_table = args.what == "monoid" and args.as_json
    if args.what == "monoid":
        if args.as_json:
            monoid.write_json(sys.stdout)
            sys.stdout.write("\n")
        else:
            idem = set(monoid.idempotents())
            print(f"{len(monoid)} elements (n = {args.n})")
            for e in monoid.elements:
                support = "".join(render_letter(x) for x in sorted(e.tableau.supp()))
                flags = " idempotent" if e.index in idem else ""
                print(
                    f"{e.index:4d}  {e.render_word():<{2 * args.n + 2}} "
                    f"supp={support or '-':<{args.n}} boxes={e.tableau.boxes():2d}{flags}"
                )
    elif args.what == "idempotents":
        idem = monoid.idempotents()
        if args.as_json:
            print(
                json.dumps(
                    [{"index": i, "word": monoid.elements[i].render_word()} for i in idem]
                )
            )
        else:
            print(f"{len(idem)} idempotents (n = {args.n})")
            for i in idem:
                print(f"{i:4d}  {monoid.elements[i].render_word()}")
    elif args.what == "jorder":
        if args.dot:
            print(monoid.jorder_dot())
        else:
            order = monoid.j_order()
            if args.as_json:
                print(
                    json.dumps(
                        {
                            "elements": len(monoid),
                            "height": order.height,
                            "coranks": order.coranks,
                            "covers": order.hasse_edges,
                        }
                    )
                )
            else:
                print(
                    f"graded order on {len(monoid)} elements, height {order.height}, "
                    f"{len(order.hasse_edges)} covering pairs"
                )
                for corank, rank in enumerate(order.by_corank()):
                    if rank:
                        words = " ".join(monoid.elements[i].render_word() for i in rank)
                        print(f"co-rank {corank:2d}: {words}")
    if args.n == ENUMERATION_CEILING:
        size = len(monoid)
        print(
            f"note: n = {args.n}: {size} elements"
            + (f", {size} x {size} table written" if wrote_table else "")
            + f", peak RSS {_peak_rss_mib():.0f} MiB",
            file=sys.stderr,
        )
    return 0


def _cmd_verify(args) -> int:
    from .core import Alphabet
    from .verify import run_suite

    Alphabet(args.n)
    if args.maxlen < 1:
        raise ValueError(f"--maxlen must be positive, got {args.maxlen}")
    if args.maxlen > VERIFY_MAXLEN_CAP:
        raise ValueError(
            f"--maxlen {args.maxlen} exceeds the ceiling {VERIFY_MAXLEN_CAP} of verify"
        )
    _enumeration_cap(args)
    results = run_suite(args.suite, args.n, maxlen=args.maxlen, seed=args.seed)
    ok = True
    for result in results:
        print(result.render())
        ok = ok and result.ok
    return 0 if ok else 1


def _to_devnull(stream) -> None:
    """Point a stream that cannot be written at devnull, so that the flush
    at exit has somewhere to go."""
    with contextlib.suppress(OSError, ValueError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"compute": _cmd_compute, "enumerate": _cmd_enumerate, "verify": _cmd_verify}
    try:
        code = command[args.command](args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        message = f"error: {exc}"
    except OSError as exc:
        message = f"error: cannot write output: {exc}"
        _to_devnull(sys.stdout)
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:  # the error line is lost too, and the exit code stays 2
        _to_devnull(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
