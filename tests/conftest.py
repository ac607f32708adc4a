import pytest

from bnpoly import scoreeq
from bnpoly.dags import enumerate_dags
from bnpoly.errors import BnPolyError
from bnpoly.ground import CharVector, FamVector, GroundSet, enumerate_cai


def _is_se_face_per_dag(graphs, all_dags=None):
    """The SE-face LP with one row per DAG rather than one per Markov class:
    the oracle for ``scoreeq.is_se_face``, whose feasible set it shares.  It
    calls ``scoreeq.solve_lp``, so a test that patches that name sees its LPs."""
    graphs = list(graphs)
    gs = graphs[0].gs
    if all_dags is None:
        all_dags = enumerate_dags(gs)
    face_keys = {g.parents for g in graphs}
    if len(face_keys) == len({g.parents for g in all_dags}):
        return True, FamVector(gs, {})
    cai = enumerate_cai(gs)
    d = len(cai)
    nvars = d + 2
    A_eq, b_eq, A_ub, b_ub = [], [], [], []
    for g in all_dags:
        row = list(scoreeq._setfn_row(g, cai))
        if g.parents in face_keys:
            A_eq.append(row + [-1, 0])
            b_eq.append(0)
        else:
            A_ub.append(row + [-1, 1])
            b_ub.append(0)
    for i in range(d):
        for sign in (1, -1):
            row = [0] * nvars
            row[i] = sign
            A_ub.append(row)
            b_ub.append(1)
    row = [0] * nvars
    row[-1] = -1
    A_ub.append(row)
    b_ub.append(0)
    c = [0] * nvars
    c[-1] = 1
    result = scoreeq.solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    if result.status != "optimal":
        raise BnPolyError(f"face LP ended with status {result.status}")
    if result.objective <= 0:
        return False, None
    return True, scoreeq.objective_from_setfn(CharVector(gs, zip(cai, result.x[:d])))


@pytest.fixture(scope="session")
def se_face_per_dag():
    return _is_se_face_per_dag


@pytest.fixture(scope="session")
def gs2():
    return GroundSet.alpha(2)


@pytest.fixture(scope="session")
def gs3():
    return GroundSet.alpha(3)


@pytest.fixture(scope="session")
def gs4():
    return GroundSet.alpha(4)


@pytest.fixture(scope="session")
def gs5():
    return GroundSet.alpha(5)


@pytest.fixture(scope="session")
def n3_report():
    from bnpoly.verify import verify_n3

    return verify_n3()


@pytest.fixture(scope="session")
def n4_report():
    from bnpoly.verify import verify_n4

    return verify_n4()


@pytest.fixture(scope="session")
def n4_stretch_report():
    # fails on purpose: the third published witness is not a vertex
    from bnpoly.verify import verify_n4

    return verify_n4(stretch=True)


@pytest.fixture(scope="session")
def counterexample_report():
    from bnpoly.verify import verify_counterexample

    return verify_counterexample()


@pytest.fixture(scope="session")
def theorem3_n3_report():
    from bnpoly.verify import verify_theorem3

    return verify_theorem3(3, trials=100, seed=0)


@pytest.fixture(scope="session")
def theorem3_n4_report():
    from bnpoly.verify import verify_theorem3

    return verify_theorem3(4, trials=25, seed=0)


@pytest.fixture(scope="session")
def theorem3_n5_report():
    from bnpoly.verify import verify_theorem3

    return verify_theorem3(5, trials=1)


@pytest.fixture(scope="session")
def conjecture_report():
    from bnpoly.verify import explore_conjecture

    return explore_conjecture()
