"""Keyed text configuration parsing and rendering."""

import pytest
from hypothesis import given, settings, strategies as st

from sdfshapes.config import _KEYS, RunSettings, parse_config, render_config
from sdfshapes.errors import BadValue, SdfShapesError, UnknownKey
from sdfshapes.field import Architecture
from sdfshapes.training import TrainConfig

from conftest import STR_LINE_ENDS


def test_empty_text_gives_defaults():
    s = parse_config("")
    assert s.train.epochs == 5000
    assert s.train.initial_lr == 1e-3
    assert s.train.lr_halving_period == 500
    assert s.train.tau == 0.5
    assert s.train.lam == 1e-4
    assert s.train.latent_dim == 256
    assert s.train.code_init_std == 1e-2
    assert s.arch.layer_count == 8
    assert s.arch.hidden_width == 512
    assert s.arch.skip_layer == 4


def test_single_override():
    s = parse_config("epochs = 10\n")
    assert s.train.epochs == 10
    assert s.train.initial_lr == 1e-3  # everything else untouched


def test_unknown_key_named():
    with pytest.raises(UnknownKey) as exc:
        parse_config("warp_speed = 9\n")
    assert "warp_speed" in str(exc.value)


def test_bad_value_reports_key_and_text():
    with pytest.raises(BadValue) as exc:
        parse_config("epochs = soon\n")
    msg = str(exc.value)
    assert "epochs" in msg and "soon" in msg


def test_comments_and_blank_lines():
    s = parse_config("# a comment\n\n  tau = 0.25  # trailing note\n")
    assert s.train.tau == 0.25


def test_comment_may_hold_any_bytes():
    s = parse_config(b"# caf\xe9\n  tau = 0.25  # \xff\xfe trailing note\n")
    assert s.train.tau == 0.25


@pytest.mark.parametrize("line", [b"tau = 0.2\xe9", b"ta\xffu = 0.2", b"\xe9 # note"])
def test_non_utf8_bytes_before_a_comment_name_the_line(line):
    with pytest.raises(BadValue, match="^line 2: bytes that are not UTF-8 text$"):
        parse_config(b"epochs = 3\n" + line + b"\n")


def test_only_newline_and_carriage_return_end_a_line():
    # \x0c ended line 1 for str.splitlines; now it is part of epochs' value
    with pytest.raises(BadValue, match=r"^line 1: bad value '3\\x0cseed = 5' for key 'epochs'$"):
        parse_config("epochs = 3\x0cseed = 5\n")
    for text in ("epochs = 3\rseed = 5\r\n# note\ntau = 0.25",
                 b"epochs = 3\rseed = 5\r\ntau = 0.25\r"):
        s = parse_config(text)
        assert (s.train.epochs, s.train.seed, s.train.tau) == (3, 5, 0.25)


def test_missing_equals_rejected():
    with pytest.raises(BadValue):
        parse_config("epochs 10\n")


def test_latent_dim_sets_both_sections():
    s = parse_config("latent_dim = 12\n")
    assert s.train.latent_dim == 12
    assert s.arch.latent_dim == 12


def test_bool_key_parsing():
    assert parse_config("squared_code_reg = true\n").train.squared_code_reg
    assert not parse_config("squared_code_reg = off\n").train.squared_code_reg
    with pytest.raises(BadValue):
        parse_config("squared_code_reg = maybe\n")


def test_removed_keys_rejected():
    # grid resolution, evaluation points and sample counts are command-line
    # options; the init scheme is fixed
    for line in ("resolution = 256", "eval_points = 30000",
                 "sample_points = 500000", "grid_halfwidth = 1.1",
                 "init_scheme = geometric"):
        with pytest.raises(UnknownKey, match=line.split()[0]):
            parse_config(line + "\n")


def test_render_parse_roundtrip_defaults():
    s = parse_config("")
    assert parse_config(render_config(s)) == s


@settings(max_examples=40, deadline=None)
@given(
    epochs=st.integers(0, 10**6),
    lr=st.floats(1e-8, 1.0, allow_nan=False),
    tau=st.floats(0.0, 10.0, allow_nan=False),
    lam=st.floats(0.0, 1.0, allow_nan=False),
    d=st.integers(1, 512),
    width=st.integers(1, 64),
    layers=st.integers(2, 10),
    squared=st.booleans(),
)
def test_render_parse_roundtrip_random(epochs, lr, tau, lam, d, width, layers,
                                       squared):
    train = TrainConfig(epochs=epochs, initial_lr=lr, tau=tau, lam=lam,
                        latent_dim=d, squared_code_reg=squared)
    arch = Architecture(layer_count=layers, hidden_width=width, latent_dim=d,
                        skip_layer=max(1, layers // 2))
    s = RunSettings(train=train, arch=arch)
    assert parse_config(render_config(s)) == s


_FLOAT_KEYS = [key for key, (_, _, parser) in _KEYS.items() if parser is float]


@pytest.mark.parametrize("value", ["nan", "-nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_float_setting_named(key, value):
    attr = _KEYS[key][1]
    with pytest.raises(SdfShapesError, match=f"^{attr} must be finite"):
        parse_config(f"{key} = {value}\n")


# what a value may be: text, float spellings, huge ints and bytes that are not UTF-8
_values = st.one_of(
    st.text(max_size=12).map(str.encode),
    st.floats().map(repr).map(str.encode),
    st.sampled_from(["nan", "-inf", "inf", "1e300", "-1e300", "1e-320", "0", "-1"]).map(str.encode),
    st.integers(-2 ** 80, 2 ** 80).map(str).map(str.encode),
    st.binary(max_size=4))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(_KEYS)), _values, st.sampled_from(STR_LINE_ENDS)),
                max_size=6),
       st.booleans())
def test_parse_config_raises_only_package_errors_on_drawn_settings(lines, as_text):
    data = b"".join(key.encode() + b" = " + value + end for key, value, end in lines)
    try:
        parse_config(data.decode("utf-8", "surrogateescape") if as_text else data)
    except SdfShapesError:
        pass
