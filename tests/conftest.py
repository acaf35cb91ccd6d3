import numpy as np
import pytest

from infomarket.agents import draw_consumers, draw_producers
from infomarket.config import SimParams
from infomarket.market import Populations


@pytest.fixture(scope="session")
def params() -> SimParams:
    return SimParams()


@pytest.fixture(scope="session")
def populations(params) -> Populations:
    prod_ss, cons_ss = np.random.SeedSequence(42).spawn(2)
    return Populations(
        producers=draw_producers(
            params.agents.n_producers,
            np.random.default_rng(prod_ss),
            mean_prod_h=params.agents.mean_prod_h,
            mean_prod_l=params.agents.mean_prod_l,
            log_sd=params.agents.prod_log_sd,
            rationality=params.agents.rationality,
        ),
        consumers=draw_consumers(
            params.agents.n_consumers,
            np.random.default_rng(cons_ss),
            k_max=params.agents.k_max,
        ),
    )
