"""Property tests over configuration parsing: any drawn value is either
accepted as a consistent configuration or rejected with ConfigError.

No drawn value ever builds a Grid or starts a run, since a drawn grid size
could ask for gigabytes.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from vorspec import ConfigError, RunConfig
from vorspec.cli import _COMMANDS, _coerce

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True,
                      allow_subnormal=True)


@settings(max_examples=500, deadline=None)
@given(n=st.integers(-8, 64), dt=ANY_FLOAT, nu=ANY_FLOAT, t_final=ANY_FLOAT)
def test_runconfig_accepts_consistent_or_raises_config_error(n, dt, nu,
                                                              t_final):
    try:
        cfg = RunConfig(n=n, dt=dt, nu=nu, t_final=t_final)
    except ConfigError:
        return
    assert cfg.n_steps >= 1
    assert math.isclose(cfg.n_steps * cfg.dt, t_final, rel_tol=1e-9)


TAGS = {
    int: lambda v: type(v) is int,
    float: lambda v: type(v) is float,
    bool: lambda v: type(v) is bool,
    str: lambda v: type(v) is str,
}
# every choice tuple of the option tables accepts exactly its members
TAGS.update({kind: kind.__contains__ for _, table, _ in _COMMANDS.values()
             for _, kind, _ in table if isinstance(kind, tuple)})

RAW = st.one_of(
    st.text(),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "Off", "bdf3", "thick", "both", " 7 ", "1_0"]),
)


@settings(max_examples=300, deadline=None)
@given(raw=RAW, tag=st.sampled_from(list(TAGS)))
def test_coerce_returns_tagged_type_or_raises_config_error(raw, tag):
    try:
        value = _coerce(raw, tag, "key")
    except ConfigError:
        return
    assert TAGS[tag](value)
