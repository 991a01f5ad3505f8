"""Every public function and class of ``evtlab`` is either a site of one of
the four argument rules (integer, grid, real, real array) or exempt with a
stated reason, so a new public argument cannot skip the rules unnoticed."""

import inspect

import test_grid_rule
import test_integer_rule
import test_real_rule

import evtlab

# name: why no rule table lists it
EXEMPT = {
    "Distribution": "a law's callables are unchecked kernels behind the checked entry points",
    "parse_distribution": "its argument is a spec string, parsed on purpose; each value goes "
    "to the family's factory, a real-rule site",
    "spec_string": "takes a Distribution alone",
    "HnVariant": "an Enum: a value outside it is Enum's ValueError",
    "uniform_open": "size is numpy's own shape argument, passed to Generator.random",
    "standard_exponential": "size is numpy's own shape argument, passed to Generator.random",
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
        for name, obj in vars(evtlab).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj) and not issubclass(obj, Exception))
    }


def _sites():
    tables = (
        test_integer_rule.SITES,
        test_grid_rule.SITES,
        test_real_rule.SITES,
        test_real_rule.ARRAY_SITES,
    )
    # a site is named by its entry point, then what it checks: "dehaan_test u",
    # "EmpiricalCdf.from_samples", "geometric cdf"
    return {key.split()[0].split(".")[0] for table in tables for key in table}


def test_every_public_name_is_a_rule_site_or_exempt():
    public = _public()
    assert sorted(public - _sites() - set(EXEMPT)) == []


def test_every_exempt_name_is_public_and_no_site():
    assert sorted(set(EXEMPT) - _public()) == []
    assert sorted(set(EXEMPT) & _sites()) == []
