"""The result records: immutable NamedTuples, two of them validated, a mutable
Certificate, canonical JSON that never falls back on a repr, and a cold
import that loads neither `dataclasses` nor `inspect`."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tameapprox import cli
from tameapprox.arithmetic import Certificate, KummerPair, _canonical_json, certify, local_square
from tameapprox.cohomology import (
    PlaceRecord,
    dimension_shift_check,
    h1,
    sha_sigma,
    verify_augmentation_lemma,
)
from tameapprox.finite_groups import builtin_group, full_subgroup
from tameapprox.g_modules import augmentation_ideal
from tameapprox.zmod_linalg import AbGroupStructure, IntMatrix, smith_decomposition

from oracle_helpers import oracle_jsonify

SRC = Path(__file__).resolve().parent.parent / "src"


def records():
    """One instance of every record type, with its field names in order."""
    g = builtin_group("klein4")
    ideal, _, _ = augmentation_ideal(g, 4)
    place = PlaceRecord(3, full_subgroup(g), True)
    return [
        (h1(g, ideal), ("group", "module", "structure", "presentation", "generators",
                        "tree")),
        (sha_sigma(g, ideal, [place]), ("structure", "generators", "h1_structure")),
        (place, ("label", "subgroup", "ramified")),
        (verify_augmentation_lemma(g), ("order", "exponent", "expected", "computed")),
        (dimension_shift_check(g)[0], ("subgroup", "ideal_h1", "ideal_expected", "ring_h1")),
        (smith_decomposition(IntMatrix.from_rows([[2, 4], [6, 8]])),
         ("u", "v", "diagonal", "rows", "cols")),
        (local_square(3, 17), ("place", "value", "is_square")),
        (certify(2, 1, 3).checks[0], ("name", "statement", "witness", "passed")),
        (AbGroupStructure([2, 4]), ("invariant_factors",)),
        (KummerPair(3, 17), ("a", "b")),
    ]


class TestImmutableRecords:
    def test_fields_keep_their_order(self):
        for record, fields in records():
            assert record._fields == fields, type(record).__name__

    def test_fields_cannot_be_assigned(self):
        for record, fields in records():
            for name in fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)

    def test_no_new_attributes(self):
        for record, _ in records():
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_place_record_default(self):
        g = builtin_group("z2")
        assert PlaceRecord("inf", full_subgroup(g)).ramified is False


class TestAbGroupStructure:
    def test_repr_is_unchanged(self):
        assert repr(AbGroupStructure([2, 4])) == "AbGroupStructure(invariant_factors=(2, 4))"
        assert repr(AbGroupStructure()) == "AbGroupStructure(invariant_factors=())"

    def test_normalises_every_construction(self):
        built = [AbGroupStructure([2, 4]), AbGroupStructure(invariant_factors=[2, 4]),
                 AbGroupStructure._make([[2, 4]]),
                 AbGroupStructure([2])._replace(invariant_factors=[2, 4])]
        for s in built:
            assert type(s) is AbGroupStructure and s.invariant_factors == (2, 4)

    @pytest.mark.parametrize("build", [
        lambda: AbGroupStructure([4, 2]),
        lambda: AbGroupStructure(invariant_factors=[1, 2]),
        lambda: AbGroupStructure._make([[0]]),
        lambda: AbGroupStructure([2])._replace(invariant_factors=[2, 3]),
    ])
    def test_validates_every_construction(self, build):
        with pytest.raises(ValueError):
            build()


class TestKummerPair:
    def test_normalises_every_construction(self):
        built = [KummerPair(3, 17), KummerPair(a=3, b=17), KummerPair._make([3, 17]),
                 KummerPair(3, 5)._replace(b=17)]
        for pair in built:
            assert type(pair) is KummerPair and pair == (3, 17)
            assert type(pair.a) is int and type(pair.b) is int
        # KummerPair("3", 17) once parsed "3": each path now refuses a string
        for build, message in ((lambda: KummerPair("3", 17), "a is '3'"),
                               (lambda: KummerPair(a=3, b="17"), "b is '17'"),
                               (lambda: KummerPair._make(["3", "17"]), "a is '3'"),
                               (lambda: KummerPair(3, 5)._replace(b="17"), "b is '17'")):
            with pytest.raises(ValueError, match=f"^{message}, not an int$"):
                build()

    @pytest.mark.parametrize("build", [
        lambda: KummerPair(12, 5),
        lambda: KummerPair(a=7, b=7),
        lambda: KummerPair._make([0, 5]),
        lambda: KummerPair(3, 17)._replace(a=1),
        lambda: KummerPair(3, 17)._replace(b=3),
    ])
    def test_validates_every_construction(self, build):
        with pytest.raises(ValueError):
            build()

    def test_replace_still_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unexpected field"):
            KummerPair(3, 17)._replace(c=5)


class TestCertificate:
    def test_containers_are_never_shared(self):
        first = Certificate(2, 1, 3, None, "Q")
        second = Certificate(ell=2, n=1, p=3, q=None, field_desc="Q")
        for name in ("checks", "sigma0_labels", "places", "sha_sigma0_minus",
                     "designated_places"):
            assert getattr(first, name) is not getattr(second, name)
        first.checks.append("x")
        first.places.append("x")
        first.sha_sigma0_minus["3"] = None
        assert second.checks == [] and second.places == [] and second.sha_sigma0_minus == {}

    def test_certified_certificates_share_nothing_mutable(self):
        first, second = certify(2, 1, 3), certify(2, 1, 3)
        assert first.certified and second.certified
        assert first.checks is not second.checks
        assert first.places is not second.places
        assert first.sha_sigma0_minus is not second.sha_sigma0_minus
        assert first.to_json_dict() == second.to_json_dict()

    def test_defaults(self):
        cert = Certificate(3, 1, 7, 5, "Q(zeta_3)")
        assert (cert.group_order, cert.sigma0_exact, cert.conclusion, cert.sha_full) == (0, False, "", None)
        assert not cert.certified


# what a JSON string escapes, or passes through only under ensure_ascii: a
# quote, a backslash, control characters, non-ASCII and astral code points
SEED_CHARS = '"\\/\x00\x01\x1f\x7f\b\f\n\r\tab z09-\u00e9\u2028\u2029\ufeff\U0001d11e\U0001f600'
SEED_STRUCTURES = (AbGroupStructure(), AbGroupStructure([2]), AbGroupStructure([2, 4]),
                   AbGroupStructure([3, 3, 9]))


def seeded_value(rng, depth=0):
    """A random report value: nested dicts, lists and tuples (empty ones too)
    over strings, bools, None, integers of every sign and size and
    AbGroupStructures, with str, int, bool and tuple dict keys, some of
    which name the same string ("1" and 1)."""
    kind = rng.randrange(10 if depth < 4 else 6)
    if kind == 0:
        return "".join(rng.choice(SEED_CHARS) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice((True, False, None))
    if kind == 2:
        return rng.choice((0, -1, 1, 2 ** 63, 2 ** 64 + 13, -(2 ** 70))) + rng.randrange(-3, 4)
    if kind in (3, 4):
        return rng.randrange(-10 ** rng.randrange(1, 30), 10 ** rng.randrange(1, 30))
    if kind == 5:
        return rng.choice(SEED_STRUCTURES)
    items = [seeded_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    keys = ("a", "1", "\u00e9\"", "", 1, -2, 2 ** 65, True, False, (1, "x"))
    return {rng.choice(keys): v for v in items}


class TestCanonicalJson:
    def test_plain_values(self):
        value = (1, [True, None], {2: "x"}, AbGroupStructure([2, 4]), AbGroupStructure())
        assert json.loads(_canonical_json(value)) == ["1", [True, None], {"2": "x"}, ["2", "4"], []]
        assert _canonical_json(value) == json.dumps(oracle_jsonify(value), indent=2)

    def test_matches_the_oracle_on_seeded_values(self):
        # the one-pass writer against the old path: convert, then json.dumps
        rng = random.Random(28)
        values = [seeded_value(rng) for _ in range(500)]
        for value in values:
            assert _canonical_json(value) == json.dumps(oracle_jsonify(value), indent=2), value
        text = "".join(map(_canonical_json, values))
        assert '\\"' in text and "\\ud834\\udd1e" in text and '"18446744073709551629"' in text
        assert "{}" in text and "[]" in text and "true" in text and "null" in text

    @pytest.mark.parametrize("value", [object(), 1.5, KummerPair(3, 17), [local_square(3, 17)]])
    def test_foreign_objects_fail(self, value):
        for convert in (_canonical_json, oracle_jsonify):
            with pytest.raises(AssertionError, match="no canonical JSON form"):
                convert(value)

    def test_foreign_object_is_an_internal_error(self, capsys, monkeypatch):
        model = cli._biquadratic_model

        def leaky(a, b):
            records, witnesses, *rest = model(a, b)
            return (records, witnesses + [object()], *rest)

        monkeypatch.setattr(cli, "_biquadratic_model", leaky)
        for fmt in ("json", "table"):
            status = cli.main(["sigma0", "--a", "3", "--b", "17", "--format", fmt])
            captured = capsys.readouterr()
            assert status == 3 and captured.out == "", fmt
            assert captured.err == "internal error: no canonical JSON form for object\n", fmt


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # -I -S: no site-packages and no environment, so only the standard library
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import tameapprox.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
