import pytest

from crossdock.instance_io import (
    load_fixture_instance,
    load_fixture_solution,
)
from crossdock.model import Instance


@pytest.fixture(scope="session")
def nine_truck() -> Instance:
    """The bundled 9-truck/6-dock reference instance."""
    return load_fixture_instance()


@pytest.fixture(scope="session")
def s_star():
    return load_fixture_solution("s_star.json")


@pytest.fixture(scope="session")
def s_prime_star():
    return load_fixture_solution("s_prime_star.json")


def tiny_two_truck(t11=0.0, c11=1.0, f12=5.0, p12=2.0, capacity=None) -> Instance:
    """Two trucks, one dock: truck 1 then truck 2, a single forward flow."""
    return Instance(
        n=2,
        m=1,
        arrival=(0.0, 2.0),
        departure=(1.0, 3.0),
        transfer_time=((t11,),),
        transfer_cost=((c11,),),
        flow=((0.0, f12), (0.0, 0.0)),
        penalty=((0.0, p12), (0.0, 0.0)),
        capacity=capacity,
        name="tiny",
    )


def touching_windows() -> Instance:
    """Truck 1 departs exactly when truck 2 arrives; truck 3 overlaps both.

    d_2 - a_1 = 4, so the dock pairs give the pair (1, 2) margins of exactly
    0, +0.01 and -0.01. Every off-diagonal flow is positive.
    """
    return Instance(
        n=3,
        m=2,
        arrival=(0.0, 2.0, 1.0),
        departure=(2.0, 4.0, 3.0),
        transfer_time=((4.0, 3.99), (4.01, 0.5)),
        transfer_cost=((1.0, 2.0), (2.0, 1.0)),
        flow=((0.0, 5.0, 3.0), (4.0, 0.0, 2.0), (6.0, 1.0, 0.0)),
        penalty=((0.0, 2.0, 2.0), (2.0, 0.0, 2.0), (2.0, 2.0, 0.0)),
        capacity=None,
        name="touching",
    )


def within_eps() -> Instance:
    """Events apart by less than EPS: truck 2 arrives 5e-10 before truck 1
    departs, truck 3 arrives 5e-10 after truck 2 departs. The tolerance alone
    decides precedence and occupancy at those events."""
    return Instance(
        n=3,
        m=1,
        arrival=(0.0, 1.0 - 5e-10, 3.0 + 5e-10),
        departure=(1.0, 3.0, 4.0),
        transfer_time=((0.5,),),
        transfer_cost=((1.0,),),
        flow=((0.0, 5.0, 3.0), (4.0, 0.0, 2.0), (0.0, 1.0, 0.0)),
        penalty=((0.0, 2.0, 2.0), (2.0, 0.0, 2.0), (2.0, 2.0, 0.0)),
        capacity=None,
        name="within-eps",
    )
