"""Every public function and class of ``evtlab`` is either a site of one of
the argument rules (integer, grid, real, real array, choice) or exempt with
a stated reason, so a new public argument cannot skip the rules unnoticed."""

import inspect

import pytest
import test_grid_rule
import test_integer_rule
import test_real_rule

import evtlab as e
from evtlab.errors import DomainError

# The choice rule: a value outside the choices is a DomainError that names
# the argument and every choice, never Enum's bare ValueError.
# (entry point, the argument's name)
CHOICE_SITES = {
    "HnVariant": (lambda v: e.HnVariant(v), "variant"),
    "h_n_eval": (lambda v: e.h_n_eval(lambda t: t, e.uniform(), 5, 0.5, v), "variant"),
    "convergence_diagnostic": (
        lambda v: e.convergence_diagnostic(
            e.NormalizerSequence.affine(e.exponential()), n_grid=(10, 100, 1000), variant=v
        ),
        "variant",
    ),
}
CHOICES = r"\['exp_form', 'linear_form'\]"


@pytest.mark.parametrize("site", CHOICE_SITES)
@pytest.mark.parametrize("value", ["exp", "EXP_FORM", True, 2, None])
def test_a_value_outside_the_choices_is_a_domain_error(site, value):
    call, name = CHOICE_SITES[site]
    with pytest.raises(DomainError, match=rf"^{name} must be one of {CHOICES}, got {value!r}$"):
        call(value)


# name: why no rule table lists it
EXEMPT = {
    "Distribution": "a law's callables are unchecked kernels behind the checked entry points",
    "parse_distribution": "its argument is a spec string, parsed on purpose; each value goes "
    "to the family's factory, a real-rule site",
    "spec_string": "takes a Distribution alone",
    "ConvergenceReport": "a result; build_report, which makes it, is a real-rule site",
    "KsResult": "a result",
    "NormingConstants": "a result",
    "OscillationReport": "a result",
    "RhoEstimate": "a result",
    "TypeClass": "a result",
}


def _public():
    """The public functions and classes of ``evtlab``, its error classes aside
    (each takes the message it carries)."""
    return {
        name
        for name, obj in vars(e).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj) and not issubclass(obj, Exception))
    }


def _sites():
    tables = (
        test_integer_rule.SITES,
        test_grid_rule.SITES,
        test_real_rule.SITES,
        test_real_rule.ARRAY_SITES,
        CHOICE_SITES,
    )
    # a site is named by its entry point, then what it checks: "dehaan_test u",
    # "NormalizerSequence.affine g", "geometric cdf"
    return {key.split()[0].split(".")[0] for table in tables for key in table}


def test_every_public_name_is_a_rule_site_or_exempt():
    public = _public()
    assert sorted(public - _sites() - set(EXEMPT)) == []


def test_every_exempt_name_is_public_and_no_site():
    assert sorted(set(EXEMPT) - _public()) == []
    assert sorted(set(EXEMPT) & _sites()) == []
