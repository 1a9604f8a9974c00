import numpy as np
import pytest

from etclab import LtiController, LtiPlant, lorenz_loop, tabuada_loop


@pytest.fixture(scope="session")
def tabuada():
    """(system, certificate) for the planar state-feedback benchmark."""
    return tabuada_loop()


@pytest.fixture(scope="session")
def lorenz():
    """(system, certificate) for the Lorenz output-feedback benchmark."""
    return lorenz_loop()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def stiff_observer_loop():
    """(plant, controller): 4 plant states, an observer-based controller, |A1| ~ 1.5e3.

    Its Lyapunov solves are backward stable, but their residuals exceed
    1e-8 |q|, so a residual bound relative to |q| alone rejects them all.
    """
    plant = LtiPlant(
        A=[[0.49856986284953597, -0.8263029811763779, 0.01212155912107381, -0.6424984719139631],
           [-0.661181427473548, 0.460772901380001, -1.6990147859746763, 0.5599793292640306],
           [-0.5314720324536222, -0.866145901572471, 1.3082781216733044, -0.08051660068142302],
           [0.016833078373396426, 0.918828633274613, 1.7253373967121315, 0.6520173487928844]],
        B=[[0.3790611303670843], [1.4220134593781777], [-2.2950086517434944],
           [0.16402120684554938]],
        C=[[0.37641280902672936, 0.805888194319361, -1.285841305904262, -0.41734763191263036]],
    )
    ctrl = LtiController(
        A=[[87.63194782978098, -51.431857907354, -103.33180166329964, -110.90818509942498],
           [249.4889029761615, -353.64269822584583, -127.29591826565265, -328.0252643446332],
           [-425.7789898849984, 524.5389658022269, 277.54664943602165, 554.0956817931718],
           [19.576262780016037, -59.82309987347032, 18.987011215618622, -26.943746989991126]],
        B=[[-44.075708872637335], [38.48041318391765], [-4.915356288828031],
           [29.129387762564434]],
        C=[[186.09852324353025, -227.20780756256582, -123.11881231868244, -242.36405831343689]],
        D=[[0.0]],
    )
    return plant, ctrl
