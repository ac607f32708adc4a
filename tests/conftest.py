import pytest

from bnpoly.ground import GroundSet


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
