import numpy as np
import pytest

from csdyn import flows


@pytest.fixture
def observed_flow():
    """flow_ensemble's run with the fixed-step engine's observer, called as
    classify_ensemble calls it: on_step(step, Y, died) sees each step's
    column-major batch and the step each row died in.  Returns what
    flow_ensemble returns."""
    def run(m, states, t, h=0.01, *, racc=False, on_step):
        X, n = flows._state_batch(m, states), m.dim
        Y = flows._column_major([X, np.zeros((len(X), 1))] if racc else [X])
        Y, alive = flows._fixed_step_engine(m, Y, t, h, racc=racc, on_step=on_step)
        out = (m.spec.wrap(Y[:, :n]), alive)
        return out + (Y[:, n],) if racc else out

    return run
