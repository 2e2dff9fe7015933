"""Replayable move scripts.

A script is an initial diagram plus an ordered list of steps; each step
names a move, a site, move-specific arguments, and optional expected
assertions evaluated on the diagram the step produces.  Replay re-checks
every precondition and fails atomically at the first violation.

Text format (``.script``), one step per line::

    use <diagram file>
    <move> site=<e0>..<e1>/<s0>..<s1> [components=<c1>,<c2>] [key=value ...]
        [assert <k>=<v> ...]

Component arguments refer to canonical component ids of the diagram the
step acts on.  :data:`MOVES` lists the moves and the arguments each takes.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

from .diagram import (
    FrontDiagram,
    check_spin_symmetry,
    parse_front,
    trace_components,
    validate_diagram,
)
from .invariants import InvariantError, classical_invariants, handle_census
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
from .wordops import MoveResult, exchange_canonical

__all__ = ["MoveStep", "MoveScript", "ScriptError", "MOVES", "apply_step", "run_script",
           "parse_site", "parse_script", "format_script"]


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


# call(diagram, site, args) -> MoveResult; args: the argument names the
# move accepts.  A named tuple, not a dataclass: cheaper to import.
_Move = namedtuple("_Move", "call needs_site args", defaults=(True, ()))


def _reidemeister(move):
    return lambda d, s, a: reidemeister(
        d,
        move,
        s,
        variant=_int_arg(a, "variant", 1),
        direction=a.get("direction", "forward"),
    )


# The calls look each move function up by its module-level name when they
# run, not when the table is built, so a rebound name (a tracing wrapper,
# say) also sees the moves that scripts and macros make.
MOVES = {
    "clasp": _Move(lambda d, s, a: clasp(d, s, "clasp")),
    "unclasp": _Move(lambda d, s, a: clasp(d, s, "unclasp")),
    "stabilize": _Move(
        lambda d, s, a: stabilize(d, _int_arg(a, "comp"), s, "stabilize"),
        args=("comp",),
    ),
    "destabilize": _Move(
        lambda d, s, a: stabilize(d, _int_arg(a, "comp"), s, "destabilize"),
        args=("comp",),
    ),
    "uplus": _Move(
        lambda d, s, a: uplus(d, _int_arg(a, "a"), _int_arg(a, "b"), s),
        args=("a", "b"),
    ),
    "handleslide": _Move(
        lambda d, s, a: handleslide(
            d, _int_arg(a, "moving"), _int_arg(a, "over"), a.get("variant"), s
        ),
        args=("moving", "over", "variant"),
    ),
    "crossing_change": _Move(lambda d, s, a: crossing_change(d, s)),
    "cancel_trivial_bypass": _Move(
        lambda d, s, a: cancel_trivial_bypass(d, _int_arg(a, "n"), _int_arg(a, "np1")),
        needs_site=False,
        args=("n", "np1"),
    ),
    "birth": _Move(lambda d, s, a: birth_cancel_pair(d, s, "birth")),
    "cancel": _Move(lambda d, s, a: birth_cancel_pair(d, s, "cancel")),
    "witness": _Move(
        lambda d, s, a: witness_subcritical(d, _int_arg(a, "comp")),
        needs_site=False,
        args=("comp",),
    ),
    "exchange": _Move(lambda d, s, a: exchange(d, s)),
    "r1": _Move(_reidemeister("R1"), args=("variant", "direction")),
    "r2": _Move(_reidemeister("R2"), args=("variant", "direction")),
    "r3": _Move(_reidemeister("R3"), args=("variant", "direction")),
    # no component map: normalization may renumber components
    "normalize": _Move(lambda d, s, a: MoveResult(normalize(d), {}), needs_site=False),
    "canonical": _Move(
        lambda d, s, a: MoveResult(exchange_canonical(d), {}), needs_site=False
    ),
}


def apply_step(d, step):
    """Apply one step's move to ``d`` and return the move's
    :class:`MoveResult`.

    A script step is always the primitive move.  An unknown move, a
    missing site and an argument the move does not accept are
    :class:`MoveError` preconditions, like the move's own.
    """
    spec = MOVES.get(step.move)
    if spec is None:
        raise MoveError(f"unknown move {step.move!r}")
    if spec.needs_site and step.site is None:
        raise MoveError("needs a site")
    for key in step.args:
        if key not in spec.args:
            takes = ", ".join(f"{k}=" for k in spec.args) or "no arguments"
            raise MoveError(f"unknown argument {key}= (takes {takes})")
    return spec.call(d, step.site, step.args)


def _check_assert(d, key, value):
    if key == "spin_symmetric":
        return check_spin_symmetry(d) == (value in ("1", "true", True))
    what = f"assertion {key}={value}"
    if key == "events":
        got = len(d.events)
    elif key == "crossings":
        got = sum(1 for e in d.events if e.kind == "X")
    elif key == "cusps":
        got = sum(1 for e in d.events if e.kind != "X")
    elif key == "components":
        got = len(trace_components(d).components)
    elif key == "chi":
        got = handle_census(d).euler
    elif key.startswith(("tb:", "rot:")):
        name, _, cid = key.partition(":")
        got = getattr(classical_invariants(d, _to_int(cid, what)), name)
    else:
        raise MoveError(f"unknown assertion {key!r}")
    return got == _to_int(value, what)


def run_script(script):
    """Execute all steps; returns (final diagram, per-step log).

    Each log entry is (step index, move name, event count after the step).
    The first precondition or assertion failure aborts with a
    :class:`ScriptError` carrying the step index.
    """
    d = script.initial
    problems = validate_diagram(d)
    if problems:
        raise ScriptError(0, f"initial diagram invalid: {problems[0]}")
    log = []
    for idx, step in enumerate(script.steps, start=1):
        try:
            d = apply_step(d, step).diagram
        except MoveError as exc:
            raise ScriptError(idx, f"{step.move}: {exc}") from exc
        for key, value in step.asserts.items():
            ok = False
            try:
                ok = _check_assert(d, key, value)
            except (MoveError, InvariantError) as exc:
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


def _to_int(text, what):
    try:
        return int(text)
    except ValueError:
        raise MoveError(f"{what}: {text!r} is not an integer") from None


def parse_site(site=None, components=None):
    """The :class:`MoveSite` written as ``e0..e1/s0..s1`` and/or
    ``c1,c2,...``; None when both texts are None.  A component list alone
    sits at gap 0, slot 1.  A number that does not parse is a
    :class:`MoveError`."""
    ids = ()
    if components is not None:
        what = f"components={components}"
        ids = tuple(_to_int(x, what) for x in components.split(","))
    if site is None:
        return site_at(0, 1, components=ids) if components is not None else None
    what = f"site={site}"
    evs, _, strands = site.partition("/")
    e0, _, e1 = evs.partition("..")
    s0, _, s1 = strands.partition("..")
    return MoveSite(
        e0=_to_int(e0, what),
        e1=_to_int(e1 if e1 else e0, what),
        s0=_to_int(s0, what),
        s1=_to_int(s1 if s1 else 0, what),
        components=ids,
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
        site = components = None
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
                site = v
            elif k == "components":
                components = v
            else:
                args[k] = v
            i += 1
        if move not in MOVES:
            raise MoveError(f"line {lineno}: unknown move {move!r}")
        try:
            site = parse_site(site, components)
        except MoveError as exc:
            raise MoveError(f"line {lineno}: {exc}") from None
        if MOVES[move].needs_site and site is None:
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
