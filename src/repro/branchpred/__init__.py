"""Branch prediction and confidence estimation.

The paper's baseline front end (Table 1) uses a 16KB perceptron
predictor with 64-bit global history and 256 entries, a 4K-entry BTB, a
64-entry return address stack, and — for DMP — a 2KB enhanced JRS
confidence estimator with 12-bit history and threshold 14.  All of those
are implemented here, plus gshare and bimodal predictors used in tests
and ablations.
"""

from repro.branchpred.base import BranchPredictor, PredictorStats
from repro.branchpred.bimodal import BimodalPredictor
from repro.branchpred.gshare import GsharePredictor
from repro.branchpred.perceptron import PerceptronPredictor
from repro.branchpred.tournament import TournamentPredictor
from repro.branchpred.btb import BranchTargetBuffer
from repro.branchpred.ras import ReturnAddressStack
from repro.branchpred.confidence import JRSConfidenceEstimator

__all__ = [
    "BranchPredictor",
    "PredictorStats",
    "BimodalPredictor",
    "GsharePredictor",
    "PerceptronPredictor",
    "TournamentPredictor",
    "BranchTargetBuffer",
    "ReturnAddressStack",
    "JRSConfidenceEstimator",
    "make_predictor",
]


#: Predictor kinds by the name a processor config uses.
PREDICTORS = {
    "perceptron": PerceptronPredictor,
    "gshare": GsharePredictor,
    "bimodal": BimodalPredictor,
    "tournament": TournamentPredictor,
}


def make_predictor(kind="perceptron", **kwargs):
    """Factory used by config files: one of :data:`PREDICTORS`."""
    try:
        cls = PREDICTORS[kind]
    except KeyError:
        raise ValueError(f"unknown predictor kind {kind!r}") from None
    return cls(**kwargs)
