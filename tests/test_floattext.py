"""The floattext kernel against repr and json, entry by entry."""

import json
import math

import numpy as np
import pytest

from semiclass import floattext

json_text = json.JSONEncoder().encode  # json's text of one value


def texts(a, special=repr):
    """The text of every entry of a, as a list of str."""
    return floattext.join([floattext.render(a, special), floattext.constant("\n", len(a))]).split("\n")[:-1]


def both_signs(values):
    a = np.asarray(values, dtype=np.float64)
    return np.concatenate([a, -a])


def test_a_million_random_finite_doubles_read_as_repr_and_as_json():
    rng = np.random.default_rng(20201)
    a = np.frombuffer(rng.bytes(8 * 1_050_000), dtype=np.float64)
    a = a[np.isfinite(a)][:1_000_000]
    assert len(a) == 1_000_000
    text = floattext.join([floattext.render(a), floattext.constant(", ", len(a))])[:-2]
    values = a.tolist()
    assert text == repr(values)[1:-1]  # a list's repr is its items' reprs, joined by ", "
    # json writes a finite float as float.__repr__ does: a tenth of the
    # sample shows it, as repr of 10^6 random doubles takes most of the time
    assert json.dumps(values[:100_000]) == "[" + ", ".join(text.split(", ", 100_000)[:100_000]) + "]"


def _edge_values():
    tiny, big = np.nextafter(0.0, 1.0), np.finfo(np.float64).max
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-324, 309)])
    near = [np.nextafter(p, to) for p in (powers, tens) for to in (0.0, np.inf)]
    rng = np.random.default_rng(7)
    digits = [float(f"{rng.integers(10 ** (n - 1), 10 ** n)}e{e}")
              for n in range(1, 18) for e in rng.integers(-340, 290, 40)]
    switches = [1e-4, 9.999999999999999e-05, 1.0000000000000001e-04, 1e-5, 0.00012345, 1.2345e-05,
                1e16, 9999999999999998.0, 1.0000000000000002e16, 1e15, 123456789012345.6, 1e17]
    integers = np.concatenate([np.arange(0, 2000), rng.integers(0, 2**53, 2000), 2**53 - np.arange(4),
                               [2**53 + 2, 10**15, 10**16, 10**17]]).astype(np.float64)
    subnormal = [2.2250738585072014e-308, 2.225073858507201e-308, 2.2250738585072019e-308,
                 3 * tiny, 4 * tiny, 7 * tiny, big, tiny * 2**52]
    values = np.concatenate([[0.0], powers, tens, *near, digits, switches, integers, subnormal,
                             np.ldexp(1.0, -1074) * np.arange(3, 100_000)])
    return both_signs(values)


def test_the_edge_set_reads_as_repr_and_as_json():
    a = _edge_values()
    assert np.isfinite(a).all()
    values = a.tolist()
    got = ", ".join(texts(a))
    assert got == repr(values)[1:-1]
    assert "[" + got + "]" == json.dumps(values)  # json.dumps's text of each float, in one call
    assert texts(np.array([-0.0, 0.0])) == ["-0.0", "0.0"]


@pytest.mark.parametrize("special,name", [(repr, "repr"), (json_text, "json")])
def test_nan_inf_and_the_four_tiny_subnormals_go_to_the_fallback(special, name):
    tiny = np.nextafter(0.0, 1.0)
    odd = [math.nan, math.inf, -math.inf, tiny, -tiny, 2 * tiny, -2 * tiny]
    a = np.array([1.5, *odd, 0.25, -3 * tiny])
    seen = []

    def spy(v):
        seen.append(v)
        return special(v)

    assert texts(a, spy) == [special(v) for v in a.tolist()]
    assert len(seen) == len(odd) and all(s == v or (math.isnan(s) and math.isnan(v))
                                         for s, v in zip(seen, odd))
    assert texts(np.array([math.nan, -math.inf]), special)[1] == ("-inf" if name == "repr" else "-Infinity")


def test_a_build_without_short_repr_renders_every_entry_by_the_fallback(monkeypatch):
    monkeypatch.setattr(floattext, "_SHORT", False)
    assert texts(np.array([0.1, 2.5, math.nan]), lambda v: f"<{v}>") == ["<0.1>", "<2.5>", "<nan>"]


def test_each_power_of_ten_is_held_to_126_bits_rounded_up():
    for k in range(floattext._K_MIN, floattext._K_MAX + 1):
        g = floattext._g(k)
        r = floattext._flog2pow10(-k) - 125
        assert 2**125 < g < 2**126
        # (g - 1) 2^r <= 10^-k < g 2^r, in integers
        if k >= 0:  # 10^-k = 1 / 10^k, and r < 0
            assert (g - 1) * 10**k <= 2**-r < g * 10**k
        elif r >= 0:
            assert (g - 1) << r <= 10**-k < g << r
        else:
            assert g - 1 <= 10**-k << -r < g


def test_strings_constants_and_empty_arrays_join_row_by_row():
    a = floattext.strings(["1", "", "abé"])
    b = floattext.render(np.array([0.5, -2.0, 1e300]))
    assert floattext.join([a, floattext.constant("|", 3), b, floattext.constant(";", 3)]) \
        == "1|0.5;|-2.0;abé|1e+300;"
    assert floattext.render(np.array([])).shape[0] == 0
    assert floattext.join([floattext.render(np.array([])), floattext.constant("x", 0)]) == ""


def test_a_matrix_is_at_most_one_byte_wider_than_its_longest_text():
    rng = np.random.default_rng(5)
    bits = np.frombuffer(rng.bytes(8 * 105_000), dtype=np.float64)
    x = np.linspace(-6.0, 6.0, 4001)
    samples = {
        "random doubles": bits[np.isfinite(bits)][:100_000],
        # a wavefunction: 0.ddd, 0.000ddd, d.ddd and d.ddde-XX side by side
        "wave": np.cos(7.0 * x) * np.exp(-x * x) * 1.3,
        "every '.' position": both_signs([1.5 * 10.0**k + 0.25 for k in range(-3, 17)]),
        "short exponents": np.array([1e-5, 2e-7, 123456.789, 1e22]),
    }
    for name, a in samples.items():
        m = floattext.render(a)
        longest = max(map(len, texts(a)))
        assert m.shape[1] <= longest + 1, name
