import pytest

from stylic.evacuation import SkewPartition, downward_move, maximal_inner_points, remove_point


def walk_of_downward_moves(skew, strategy):
    """jdt as a walk of public downward_move steps, each one a validated
    SkewPartition, opening every hole at the first or the last inner corner."""
    state = skew
    while state.inner:
        choices = maximal_inner_points(state)
        pick = choices[0] if strategy == "first" else choices[-1]
        state = SkewPartition(state.outer, remove_point(state.inner, pick), state.labels, pick)
        while state.hole is not None:
            state = downward_move(state)
    return state.to_partition()


@pytest.fixture(scope="session")
def jdt_by_moves():
    return walk_of_downward_moves
