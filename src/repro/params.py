"""Declared parameters: each experiment parameter is one :class:`Field`.

``repro`` builds its flags from fields (:meth:`Field.parse` reads a
flag's text) and ``POST /v1/jobs`` checks submissions against schemas of
them (:func:`validate_params`); both go through :meth:`Field.validate`,
so both surfaces accept the same values and reject the rest with the
same message.  ``minimum``/``maximum`` are validity bounds, what the
library accepts, and every surface enforces them.  ``cap`` is an
admission cap, what one request may ask of a shared service, and only
:func:`validate_params` enforces it.  A list field checks each item.

:data:`DSE_SEARCH` and :data:`CONFORMANCE` are the schemas of the two
studies both surfaces run.  Standard library only: choices are looked
up when a value is checked, so importing the CLI stays cheap.
"""

import importlib
from dataclasses import dataclass
from typing import Callable, Optional


class ValidationError(ValueError):
    """A parameter failed its declaration (CLI exit 2, HTTP 400)."""


def _typed(name, value, kind):
    """``value`` if it is a ``kind`` (an int passes as a float)."""
    if kind is float and isinstance(value, int) \
            and not isinstance(value, bool):
        return float(value)
    if isinstance(value, bool) and kind is not bool \
            or not isinstance(value, kind):
        raise ValidationError(
            f"{name}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class Field:
    """One declared parameter."""

    type: type                      # int | float | str | bool | list
    default: object = None          # None + required=False -> optional
    required: bool = False
    choices: Optional[Callable] = None  # () -> allowed values (per item)
    minimum: Optional[float] = None     # validity bounds (per item)
    maximum: Optional[float] = None
    cap: Optional[float] = None         # admission cap (POST /v1/jobs)
    item: type = str                    # a list's item type
    normalize: Optional[Callable] = None  # e.g. str.upper: any case
    doc: str = ""

    def validate(self, name, value):
        """``value`` checked against the declaration; returns it
        normalized.  Raises :class:`ValidationError`."""
        value = _typed(name, value, self.type)
        if self.type is list:
            return [self._check(name, _typed(name, item, self.item))
                    for item in value]
        return self._check(name, value)

    def _check(self, name, value):
        if self.normalize is not None:
            value = self.normalize(value)
        if self.choices is not None:
            allowed = self.choices()
            if value not in allowed:
                raise ValidationError(
                    f"{name}: {value!r} not one of {sorted(allowed)}"
                )
        if self.minimum is not None and value < self.minimum:
            raise ValidationError(f"{name}: {value} < {self.minimum}")
        if self.maximum is not None and value > self.maximum:
            raise ValidationError(f"{name}: {value} > {self.maximum}")
        return value

    def admit(self, name, value):
        """:meth:`validate`, then the admission :attr:`cap`."""
        value = self.validate(name, value)
        if self.cap is not None and value > self.cap:
            raise ValidationError(f"{name}: {value} > {self.cap}")
        return value

    def parse(self, name, text):
        """A command-line value (a list is comma-separated), validated."""
        kind = self.item if self.type is list else self.type
        try:
            value = ([kind(token) for token in text.split(",") if token]
                     if self.type is list else kind(text))
        except ValueError:
            raise ValidationError(
                f"{name}: expected {kind.__name__}, got {text!r}"
            ) from None
        return self.validate(name, value)

    def describe(self):
        """The ``GET /v1/types`` entry; a cap shows as ``max``."""
        entry = {"type": self.type.__name__, "required": self.required,
                 "default": self.default,
                 "choices": self.choices and sorted(self.choices()),
                 "min": self.minimum,
                 "max": self.maximum if self.cap is None else self.cap,
                 "doc": self.doc or None}
        return {key: value for key, value in entry.items()
                if value is not None}


def validate_params(schema, params):
    """Admission: ``params`` checked against ``schema``, caps included;
    returns them normalized, defaults filled in."""
    if not isinstance(params, dict):
        raise ValidationError("params must be a JSON object")
    unknown = set(params) - set(schema)
    if unknown:
        raise ValidationError(
            f"unknown parameter(s) {sorted(unknown)}; "
            f"accepted: {sorted(schema)}"
        )
    normalized = {}
    for name, spec in schema.items():
        if name in params:
            normalized[name] = spec.admit(name, params[name])
        elif spec.required:
            raise ValidationError(f"missing required parameter '{name}'")
        elif spec.default is not None:
            normalized[name] = spec.default
    return normalized


def _named(module, name):
    """Choices read from ``module.name`` when a value is checked."""
    return lambda: getattr(importlib.import_module(module), name)


#: The seed of the yield, kernel and design-space experiments.
SEED = Field(int, default=2022, minimum=0,
             doc="base seed; a fixed seed gives the same output")

#: ``repro dse search`` and the ``dse_search`` job; both run
#: :func:`repro.dse.search.run_dse_search`.
DSE_SEARCH = {
    "budget": Field(int, default=48, minimum=1, cap=1024,
                    doc="scoring-job budget, any fidelity"),
    "seed": SEED,
    "objectives": Field(
        list, default=["area", "cost", "energy"],
        choices=_named("repro.dse.search", "SEARCH_OBJECTIVES"),
        doc="lower-is-better objectives"),
    "population": Field(int, default=16, minimum=2, cap=128,
                        doc="NSGA-II population size"),
    "features": Field(
        list, default=[],
        choices=_named("repro.netlist.dse_cores", "DSE_FEATURES"),
        doc="feature gates to search; none = every gate"),
    "microarchs": Field(
        list, default=[], choices=_named("repro.dse.space", "MICROARCHS"),
        normalize=str.upper,
        doc="microarchitectures to search, any case; none = SC,P,MC"),
    "models": Field(
        list, default=[],
        choices=_named("repro.dse.space", "OPERAND_MODELS"),
        doc="operand models to search; none = acc,ls"),
    "bus": Field(list, default=[], item=int, minimum=0,
                 doc="program-bus widths to search, 0 = natural; "
                     "none = 0,8"),
}

#: ``repro conform run`` and the ``conformance`` job; both render with
#: :func:`repro.conformance.runner.format_campaign`.
CONFORMANCE = {
    "seed": Field(int, default=0, minimum=0, doc="campaign seed"),
    "budget": Field(int, default=200, minimum=1, cap=2000,
                    doc="case budget per oracle, scaled by oracle cost"),
    "oracles": Field(
        list, default=[],
        choices=_named("repro.conformance.oracles", "ORACLES"),
        doc="oracles to run; none = all"),
}
