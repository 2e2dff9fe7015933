"""Replayable move scripts.

A script is an initial diagram plus an ordered list of steps; each step
names a move, a site, move-specific arguments, and optional expected
assertions evaluated on the diagram the step produces.  Replay re-checks
every precondition and fails atomically at the first violation.

Text format (``.script``), one step per line::

    use <diagram file>
    <move> site=<e0>..<e1>/<s0>..<s1> [key=value ...] [assert <k>=<v> ...]

Component arguments refer to canonical component ids of the diagram the
step acts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .diagram import (
    FrontDiagram,
    check_spin_symmetry,
    parse_front,
    trace_components,
    validate_diagram,
)
from .invariants import classical_invariants, handle_census
from .moves import (
    MoveError,
    MoveSite,
    birth_cancel_pair,
    cancel_trivial_bypass,
    clasp,
    crossing_change,
    exchange,
    handleslide,
    normalize,
    reidemeister,
    site_at,
    stabilize,
    uplus,
    witness_subcritical,
)
from .wordops import exchange_canonical

__all__ = ["MoveStep", "MoveScript", "ScriptError", "run_script", "parse_script",
           "format_script"]


class ScriptError(MoveError):
    def __init__(self, step, message):
        self.step = step
        super().__init__(f"step {step}: {message}")


@dataclass(frozen=True)
class MoveStep:
    move: str
    site: MoveSite | None = None
    args: dict = field(default_factory=dict)
    asserts: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "args", dict(self.args))
        object.__setattr__(self, "asserts", dict(self.asserts))


@dataclass(frozen=True)
class MoveScript:
    initial: FrontDiagram
    steps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


_NO_SITE = {"cancel_trivial_bypass", "witness", "normalize", "canonical"}


def _int_arg(args, name, default=None):
    """An integer move argument; missing (with no default) or not an
    integer is a precondition failure of the step."""
    value = args.get(name, default)
    if value is None:
        raise MoveError(f"missing argument {name}=")
    try:
        return int(value)
    except ValueError:
        raise MoveError(f"argument {name}={value!r} is not an integer") from None


def _apply_step(d, step):
    m = step.move
    a = step.args
    s = step.site
    if m == "clasp":
        return clasp(d, s, "clasp").diagram
    if m == "unclasp":
        return clasp(d, s, "unclasp").diagram
    if m == "stabilize":
        return stabilize(d, _int_arg(a, "comp"), s, "stabilize").diagram
    if m == "destabilize":
        return stabilize(d, _int_arg(a, "comp"), s, "destabilize").diagram
    if m == "uplus":
        return uplus(d, _int_arg(a, "a"), _int_arg(a, "b"), s).diagram
    if m == "handleslide":
        return handleslide(
            d, _int_arg(a, "moving"), _int_arg(a, "over"), a.get("variant"), s
        ).diagram
    if m == "crossing_change":
        return crossing_change(d, s, a.get("mode", "primitive")).diagram
    if m == "cancel_trivial_bypass":
        return cancel_trivial_bypass(d, _int_arg(a, "n"), _int_arg(a, "np1")).diagram
    if m == "birth":
        return birth_cancel_pair(d, s, "birth").diagram
    if m == "cancel":
        return birth_cancel_pair(d, s, "cancel").diagram
    if m == "witness":
        return witness_subcritical(d, _int_arg(a, "comp")).diagram
    if m == "exchange":
        return exchange(d, s).diagram
    if m in ("r1", "r2", "r3"):
        return reidemeister(
            d,
            m.upper(),
            s,
            variant=_int_arg(a, "variant", 1),
            direction=a.get("direction", "forward"),
        ).diagram
    if m == "normalize":
        return normalize(d)
    if m == "canonical":
        return exchange_canonical(d)
    raise MoveError(f"unknown move {m!r}")


def _check_assert(d, key, value):
    if key == "events":
        return len(d.events) == int(value)
    if key == "crossings":
        return sum(1 for e in d.events if e.kind == "X") == int(value)
    if key == "cusps":
        return sum(1 for e in d.events if e.kind != "X") == int(value)
    if key == "components":
        return len(trace_components(d).components) == int(value)
    if key == "chi":
        return handle_census(d).euler == int(value)
    if key == "spin_symmetric":
        return check_spin_symmetry(d) == (value in ("1", "true", True))
    if key.startswith("tb:"):
        cid = int(key.split(":", 1)[1])
        return classical_invariants(d, cid).tb == int(value)
    if key.startswith("rot:"):
        cid = int(key.split(":", 1)[1])
        return classical_invariants(d, cid).rot == int(value)
    raise MoveError(f"unknown assertion {key!r}")


def run_script(script, check_valid=True):
    """Execute all steps; returns (final diagram, per-step log).

    Each log entry is (step index, move name, event count after the step).
    The first precondition or assertion failure aborts with a
    :class:`ScriptError` carrying the step index.
    """
    d = script.initial
    if check_valid:
        problems = validate_diagram(d)
        if problems:
            raise ScriptError(0, f"initial diagram invalid: {problems[0]}")
    log = []
    for idx, step in enumerate(script.steps, start=1):
        try:
            d = _apply_step(d, step)
        except MoveError as exc:
            raise ScriptError(idx, f"{step.move}: {exc}") from exc
        for key, value in step.asserts.items():
            ok = False
            try:
                ok = _check_assert(d, key, value)
            except MoveError as exc:
                raise ScriptError(idx, str(exc)) from exc
            if not ok:
                raise ScriptError(
                    idx, f"assertion {key}={value} failed after {step.move}"
                )
        log.append((idx, step.move, len(d.events)))
    return d, log


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def _parse_site(text):
    # e0..e1/s0..s1
    evs, _, strands = text.partition("/")
    e0, _, e1 = evs.partition("..")
    s0, _, s1 = strands.partition("..")
    return MoveSite(
        e0=int(e0),
        e1=int(e1 if e1 else e0),
        s0=int(s0),
        s1=int(s1 if s1 else 0),
    )


def parse_script(text, loader=None, initial=None):
    """Parse a ``.script`` file.

    ``loader(path)`` resolves the ``use`` header to diagram text; an
    explicit ``initial`` diagram skips the header.
    """
    steps = []
    init = initial
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "use":
            if init is not None and initial is None:
                raise MoveError(f"line {lineno}: duplicate use header")
            if initial is None:
                if loader is None:
                    raise MoveError(f"line {lineno}: no loader for use header")
                init = parse_front(loader(" ".join(toks[1:])))
            continue
        move = toks[0]
        site = None
        args = {}
        asserts = {}
        i = 1
        while i < len(toks):
            tok = toks[i]
            if tok == "assert":
                i += 1
                while i < len(toks):
                    k, _, v = toks[i].partition("=")
                    asserts[k] = v
                    i += 1
                break
            k, _, v = tok.partition("=")
            if not _:
                raise MoveError(f"line {lineno}: expected key=value, got {tok!r}")
            if k == "site":
                site = _parse_site(v)
            elif k == "components":
                ids = tuple(int(x) for x in v.split(","))
                site = replace(site, components=ids) if site else site_at(
                    0, 1, components=ids
                )
            else:
                args[k] = v
            i += 1
        if move not in _NO_SITE and site is None and move not in ("normalize",):
            raise MoveError(f"line {lineno}: move {move} needs a site")
        steps.append(MoveStep(move=move, site=site, args=args, asserts=asserts))
    if init is None:
        raise MoveError("script has no initial diagram (missing use header)")
    return MoveScript(initial=init, steps=tuple(steps))


def format_site(site):
    out = f"{site.e0}..{site.e1}/{site.s0}..{site.s1}"
    return out


def format_script(script, use_path=None):
    lines = []
    if use_path:
        lines.append(f"use {use_path}")
    for step in script.steps:
        parts = [step.move]
        if step.site is not None:
            parts.append(f"site={format_site(step.site)}")
            if step.site.components:
                parts.append(
                    "components=" + ",".join(str(c) for c in step.site.components)
                )
        for k, v in step.args.items():
            parts.append(f"{k}={v}")
        if step.asserts:
            parts.append("assert")
            parts += [f"{k}={v}" for k, v in step.asserts.items()]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
