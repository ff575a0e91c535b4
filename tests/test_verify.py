"""The verification suite: work done once per object, and checks that can fail."""

from fractions import Fraction

from lspaceknots import obstruct, upsilon, verify
from lspaceknots.upsilon import envelope, jump_spectrum

CHECKS_BY_NAME = {check.name: check for check in verify.CHECKS}


def patch_spectra(monkeypatch, spectrum) -> list:
    """Route every jump spectrum that verify and obstruct build through ``spectrum``."""
    built = []

    def counted(f):
        built.append(f)
        return spectrum(f)

    monkeypatch.setattr(verify, "jump_spectrum", counted)
    monkeypatch.setattr(obstruct, "jump_spectrum", counted)
    return built


def test_jump_equality_builds_one_spectrum_per_trial(monkeypatch):
    built = patch_spectra(monkeypatch, jump_spectrum)
    assert CHECKS_BY_NAME["jump-equality-on-combinations"].run() == []
    assert len(built) == 200


def test_jump_equality_catches_a_wrong_jump_at_4_over_3(monkeypatch):
    def off_by_one(f):
        spectrum = jump_spectrum(f)
        spectrum[Fraction(4, 3)] = spectrum.get(Fraction(4, 3), Fraction(0)) + 1
        return spectrum

    patch_spectra(monkeypatch, off_by_one)
    failures = CHECKS_BY_NAME["jump-equality-on-combinations"].run()
    assert failures[0] == "trial 0: jumps differ at 2/3 vs 4/3"
    assert len(failures) == 200


def test_structural_properties_catches_an_envelope_without_the_last_line(monkeypatch):
    # without the m = 2g line T(2,3) has the one segment -t: reported, and the check goes on
    def without_last_line(sg):
        g, small = sg.genus, sg.small_elements
        return envelope([(s - g, -2 * i) for i, s in enumerate(small)])

    monkeypatch.setattr(verify, "upsilon_from_semigroup", without_last_line)
    failures = CHECKS_BY_NAME["structural-properties"].run()
    assert "T(2,3): upsilon has no singularity" in failures
    assert any("differs from the pointwise maximum" in line for line in failures)


def test_structural_properties_builds_one_upsilon_per_sample(monkeypatch):
    built = []
    from_semigroup = upsilon.upsilon_from_semigroup
    monkeypatch.setattr(verify, "upsilon_from_semigroup", lambda sg: built.append(sg) or from_semigroup(sg))
    assert CHECKS_BY_NAME["structural-properties"].run() == []
    samples = [sg for _, sg in verify._sample_semigroups()]
    assert built[: len(samples)] == samples
    assert len(built) == len(samples) + 100  # then one per random envelope sample
