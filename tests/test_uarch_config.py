"""ProcessorConfig tests (Table 1 fidelity and validation)."""

import pytest

from repro.uarch import ProcessorConfig
from repro.uarch.config import BASELINE


def test_defaults_match_table1():
    cfg = ProcessorConfig()
    assert cfg.fetch_width == 8
    assert cfg.rob_size == 512
    assert cfg.retire_width == 8
    assert cfg.max_cond_branches_per_cycle == 3
    assert cfg.perceptron_entries == 256
    assert cfg.perceptron_history == 64
    assert cfg.btb_entries == 4096
    assert cfg.ras_depth == 64
    assert cfg.icache_kb == 64 and cfg.icache_assoc == 2
    assert cfg.dcache_kb == 64 and cfg.dcache_assoc == 4
    assert cfg.l2_kb == 1024 and cfg.l2_assoc == 8
    assert cfg.memory_latency == 300
    assert cfg.confidence_threshold == 14
    assert cfg.num_predicate_registers == 32
    assert cfg.num_cfm_registers == 3


def test_min_misprediction_penalty_at_least_25():
    assert ProcessorConfig().min_misprediction_penalty >= 25


def test_baseline_is_default():
    assert BASELINE == ProcessorConfig()


def test_frozen():
    cfg = ProcessorConfig()
    with pytest.raises(Exception):
        cfg.fetch_width = 4


def test_validation_rejects_nonsense():
    with pytest.raises(ValueError):
        ProcessorConfig(fetch_width=0).validate()
    with pytest.raises(ValueError):
        ProcessorConfig(retire_width=0).validate()


def test_validate_returns_self():
    cfg = ProcessorConfig()
    assert cfg.validate() is cfg


@pytest.mark.parametrize("overrides,field", [
    ({"icache_assoc": 0}, "icache_assoc"),
    ({"rob_size": "x"}, "rob_size"),
    ({"fetch_width": 1.5}, "fetch_width"),
    ({"btb_entries": True}, "btb_entries"),
    ({"l2_latency": -1}, "l2_latency"),
    ({"predictor_kind": "oracle"}, "predictor_kind"),
])
def test_validation_names_the_bad_field(overrides, field):
    with pytest.raises(ValueError, match=field):
        ProcessorConfig(**overrides).validate()


def test_zero_is_allowed_where_it_means_none():
    cfg = ProcessorConfig(confidence_history=0, redirect_penalty=0,
                          num_cfm_registers=0)
    assert cfg.validate() is cfg
