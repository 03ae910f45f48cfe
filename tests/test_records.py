"""The result records: immutable NamedTuples, two of them validated, a mutable
Certificate, canonical JSON that never falls back on a repr, and a cold
import that loads neither `dataclasses` nor `inspect`."""

import subprocess
import sys
from pathlib import Path

import pytest

from tameapprox import cli
from tameapprox.arithmetic import Certificate, KummerPair, _jsonify, certify, local_square
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
        built = [KummerPair("3", 17), KummerPair(a=3, b="17"), KummerPair._make(["3", "17"]),
                 KummerPair(3, 5)._replace(b="17")]
        for pair in built:
            assert type(pair) is KummerPair and pair == (3, 17)
            assert type(pair.a) is int and type(pair.b) is int

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


class TestCanonicalJson:
    def test_plain_values(self):
        assert _jsonify((1, [True, None], {2: "x"}, AbGroupStructure([2, 4]), AbGroupStructure())) \
            == ["1", [True, None], {"2": "x"}, ["2", "4"], []]

    @pytest.mark.parametrize("value", [object(), 1.5, KummerPair(3, 17), [local_square(3, 17)]])
    def test_foreign_objects_fail(self, value):
        with pytest.raises(AssertionError, match="no canonical JSON form"):
            _jsonify(value)

    def test_foreign_object_is_an_internal_error(self, capsys, monkeypatch):
        model = cli._biquadratic_model

        def leaky(a, b):
            records, witnesses, *rest = model(a, b)
            return (records, witnesses + [object()], *rest)

        monkeypatch.setattr(cli, "_biquadratic_model", leaky)
        status = cli.main(["sigma0", "--a", "3", "--b", "17"])
        captured = capsys.readouterr()
        assert status == 3 and captured.out == ""
        assert captured.err == "internal error: no canonical JSON form for object\n"


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # -I -S: no site-packages and no environment, so only the standard library
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import tameapprox.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
