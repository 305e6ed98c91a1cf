"""The exit contract's two halves: the InputError hierarchy and the finite guard."""

import numpy as np
import pytest

from conespec.errors import (ConfigError, InputError, NonFiniteResult, NumericalError,
                             ParseError, ResonantExponent, UsageError, ValidationError, finite)


def test_every_input_refusal_is_an_input_error():
    for cls in (ConfigError, ParseError, ValidationError, UsageError, ResonantExponent):
        assert issubclass(cls, InputError) and not issubclass(cls, NumericalError)
    assert issubclass(InputError, ValueError)
    labels = {cls: cls.label for cls in (InputError, ResonantExponent, ConfigError,
                                         ParseError, ValidationError, UsageError)}
    assert labels == {InputError: "invalid input", ResonantExponent: "invalid input",
                      ConfigError: "config error", ParseError: "config error",
                      ValidationError: "config error", UsageError: "usage error"}


def test_finite_block_raises_non_finite_result():
    before = np.geterr()
    lam = np.array([1.0, 2.0])
    with pytest.raises(NonFiniteResult, match=r"^shot at lam=\[1\. 2\.\]: overflow"):
        with finite("shot at lam={lam}", lam=lam):
            np.float64(1e308) * lam
    with pytest.raises(NonFiniteResult, match="invalid value"):
        with finite("nan"):
            np.zeros(1) / np.zeros(1)
    assert np.geterr() == before


def test_finite_decorator_passes_values_and_other_errors():
    @finite("non-finite square")
    def square(x):
        """Docstring kept."""
        if x < 0:
            raise ValueError("negative")
        return np.float64(x) * x

    assert square(3.0) == 9.0
    assert square.__name__ == "square" and square.__doc__ == "Docstring kept."
    with pytest.raises(NonFiniteResult, match="^non-finite square: overflow"):
        square(1e300)
    with pytest.raises(ValueError, match="negative"):
        square(-1.0)
