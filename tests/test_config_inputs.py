"""Every JSON config reader returns an instance or raises ConfigError, whatever
JSON value it is given: nothing malformed gets through as another exception."""
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiermem.errors import ConfigError
from hiermem.footprint import TransformerConfig
from hiermem.lockfree import AdamHyper, ToyTrainConfig
from hiermem.simengine import LINKS, HardwareProfile, LinkSpec
from hiermem.tracer import TimingModel

READERS = (TransformerConfig.from_dict, TimingModel.from_dict, HardwareProfile.from_dict,
           ToyTrainConfig.from_dict)

# Keys are mostly real field names, at every depth, so that values reach the
# type and range checks and not only the unknown-key one.
FIELD_NAMES = sorted({f.name for cls in (TransformerConfig, TimingModel, HardwareProfile,
                                         LinkSpec, ToyTrainConfig, AdamHyper)
                      for f in fields(cls)} | set(LINKS))
KEYS = st.sampled_from(FIELD_NAMES) | st.text(max_size=4)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=6),
    max_leaves=30)
BIG = 10**400  # a JSON int beyond float range


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
@example([[1]])
@example({"batch_size": 1, "seq_len": 1, "d_model": 1, "d_ffn": True})
@example({"kind": "table", "table": {"x": 5}})
@example({"gpu_sec_per_byte": BIG, "links": {"ssd_io": {"bandwidth_bytes_per_s": BIG}}})
def test_readers_return_an_instance_or_raise_config_error(raw):
    for read in READERS:
        try:
            read(raw)
        except ConfigError:
            pass
