"""Line-oriented fixture files: groups, automorphisms, actions, check requests.

The grammar is deliberately flat. Blocks open with a header line and close
with ``end``; single-line statements cover actions and check requests.
``#`` starts a comment anywhere. See the bundled corpus for a full example.

    group NAME
    backend pc|perm
    prime P          ngens N          (pc)
    pow I = WORD     comm J I = WORD  (pc; WORD = increasing i^e factors)
    degree D         gen NAME = CYCLES (perm)
    end

    aut NAME on GROUP
    image I = WORD        (pc)
    image GEN = CYCLES    (perm; or a word over generator names)
    end

    action NAME on GROUP = AUT1 AUT2 ...
    check CHECKNAME on TARGET [key=value ...]
"""

import sys
from dataclasses import dataclass
from typing import Optional, Union

from . import kernels
from .errors import (
    BudgetExceeded,
    DuplicateName,
    FixtureSyntaxError,
    GroupLabError,
    MalformedSpec,
    UnresolvedReference,
)
from .groups import (
    Automorphism,
    FiniteGroup,
    PcPresentation,
    PermutationGenSet,
    _perm_repr,
    build_group,
    perm_from_cycles,
)


@dataclass(frozen=True)
class GroupEntry:
    name: str
    backend: str
    presentation: Union[PcPresentation, PermutationGenSet]


@dataclass(frozen=True)
class AutEntry:
    name: str
    group: str
    # pc: ((generator index, word), ...); perm: ((generator name, expr), ...)
    images: tuple


@dataclass(frozen=True)
class ActionEntry:
    name: str
    group: str
    auts: tuple


@dataclass(frozen=True)
class CheckRequest:
    check: str
    target: str
    params: tuple  # ((key, value), ...) sorted by key; values kept as strings


@dataclass(frozen=True)
class FixtureFile:
    groups: tuple = ()
    auts: tuple = ()
    actions: tuple = ()
    checks: tuple = ()

    def group(self, name: str) -> GroupEntry:
        for entry in self.groups:
            if entry.name == name:
                return entry
        raise UnresolvedReference(f"no group named {_shown(name)}")

    def aut(self, name: str) -> AutEntry:
        for entry in self.auts:
            if entry.name == name:
                return entry
        raise UnresolvedReference(f"no automorphism named {_shown(name)}")

    def action(self, name: str) -> ActionEntry:
        for entry in self.actions:
            if entry.name == name:
                return entry
        raise UnresolvedReference(f"no action named {_shown(name)}")


# -- parsing ------------------------------------------------------------


def _is_number(text: str) -> bool:
    """ASCII digits no longer than int() reads: '²' passes str.isdigit() but not int()."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0 is no limit
    return text.isascii() and text.isdigit() and not 0 < limit < len(text)


def _shown(token: str) -> str:
    """Repr of a refused token for its error message, clipped to 40 characters plus its length."""
    if len(token) <= 40:
        return repr(token)
    return f"{token[:40]!r}... ({len(token)} characters)"


def _named(name: str) -> str:
    """A fixture name for a message: as written up to 40 characters, else clipped (_shown)."""
    return name if len(name) <= 40 else _shown(name)


def _parse_word(text: str, lineno: int) -> tuple:
    """WORD = space-separated i^e factors with strictly increasing i."""
    factors = []
    last = 0
    for token in text.split():
        head, _, tail = token.partition("^")
        if not _is_number(head) or (tail and not _is_number(tail)):
            raise FixtureSyntaxError(f"bad word factor {_shown(token)}", lineno)
        i, e = int(head), int(tail) if tail else 1
        if i <= last:
            raise FixtureSyntaxError(
                f"factor indices must increase, got {_shown(token)}", lineno
            )
        last = i
        factors.append((i, e))
    return tuple(factors)


def _parse_cycles(text: str, degree: int, lineno: int) -> tuple:
    text = text.strip()
    if not text:
        raise FixtureSyntaxError("expected cycles", lineno)
    cycles = []
    pos = 0
    while pos < len(text):
        if text[pos] != "(":
            raise FixtureSyntaxError(
                f"expected '(' in cycles {_shown(text)}", lineno, pos + 1
            )
        close = text.find(")", pos)
        if close < 0:
            raise FixtureSyntaxError("unclosed cycle", lineno, pos + 1)
        body = text[pos + 1 : close].split()
        if not all(map(_is_number, body)):
            raise FixtureSyntaxError(f"bad cycle {_shown(text[pos:close + 1])}", lineno)
        if body:
            cycles.append([int(t) for t in body])
        pos = close + 1
        while pos < len(text) and text[pos] == " ":
            pos += 1
    try:
        return perm_from_cycles(degree, cycles)
    except MalformedSpec as exc:
        raise FixtureSyntaxError(str(exc), lineno) from exc
    except BudgetExceeded as exc:  # keeps its class, as a degree above the cap is no syntax error
        raise BudgetExceeded(f"{exc} (line {lineno})") from exc


class _GroupBlock:
    def __init__(self, name, lineno):
        self.name = name
        self.lineno = lineno
        self.backend: Optional[str] = None
        self.prime: Optional[int] = None
        self.ngens: Optional[int] = None
        self.powers: dict = {}
        self.comms: dict = {}
        self.degree: Optional[int] = None
        self.gens: list = []

    def finish(self) -> GroupEntry:
        if self.backend == "pc":
            if self.prime is None or self.ngens is None:
                raise FixtureSyntaxError(
                    f"group {_named(self.name)}: pc backend needs prime and ngens",
                    self.lineno,
                )
            try:
                pres = PcPresentation(self.prime, self.ngens, self.powers, self.comms)
            except MalformedSpec as exc:
                raise FixtureSyntaxError(
                    f"group {_named(self.name)}: {exc}", self.lineno
                ) from exc
            return GroupEntry(self.name, "pc", pres)
        if self.backend == "perm":
            if self.degree is None or not self.gens:
                raise FixtureSyntaxError(
                    f"group {_named(self.name)}: perm backend needs degree and generators",
                    self.lineno,
                )
            try:
                pres = PermutationGenSet(self.degree, tuple(self.gens))
            except MalformedSpec as exc:
                raise FixtureSyntaxError(
                    f"group {_named(self.name)}: {exc}", self.lineno
                ) from exc
            return GroupEntry(self.name, "perm", pres)
        raise FixtureSyntaxError(
            f"group {_named(self.name)}: missing 'backend pc' or 'backend perm'", self.lineno
        )


def parse_fixture(text: str) -> FixtureFile:
    groups: list = []
    auts: list = []
    actions: list = []
    checks: list = []
    names: dict = {}

    def claim(name: str, lineno: int) -> None:
        if name in names:
            raise DuplicateName(
                f"name {_shown(name)} already used on line {names[name]}", lineno
            )
        names[name] = lineno

    def group_entry(name: str, lineno: int) -> GroupEntry:
        for entry in groups:
            if entry.name == name:
                return entry
        raise UnresolvedReference(f"no group named {_shown(name)}", lineno)

    block: Optional[_GroupBlock] = None
    aut_block: Optional[dict] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()

        if block is not None:
            _group_line(block, head, rest, lineno)
            if head == "end":
                groups.append(block.finish())
                block = None
            continue

        if aut_block is not None:
            if head == "end":
                auts.append(_finish_aut(aut_block))
                aut_block = None
            elif head == "image":
                _image_line(aut_block, rest, lineno)
            else:
                raise FixtureSyntaxError(
                    f"unexpected {_shown(head)} inside aut block", lineno, 1
                )
            continue

        if head == "group":
            if not rest or " " in rest:
                raise FixtureSyntaxError("usage: group NAME", lineno)
            claim(rest, lineno)
            block = _GroupBlock(rest, lineno)
        elif head == "aut":
            name, _, target = rest.partition(" on ")
            name, target = name.strip(), target.strip()
            if not name or not target:
                raise FixtureSyntaxError("usage: aut NAME on GROUP", lineno)
            claim(name, lineno)
            entry = group_entry(target, lineno)
            aut_block = {"name": name, "entry": entry, "images": [], "line": lineno}
        elif head == "action":
            left, eq, right = rest.partition("=")
            name, _, target = left.strip().partition(" on ")
            name, target = name.strip(), target.strip()
            if not name or not target or not eq:
                raise FixtureSyntaxError(
                    "usage: action NAME on GROUP = AUT1 AUT2 ...", lineno
                )
            claim(name, lineno)
            entry = group_entry(target, lineno)
            aut_names = tuple(right.split())
            for aname in aut_names:
                found = next((a for a in auts if a.name == aname), None)
                if found is None:
                    raise UnresolvedReference(
                        f"no automorphism named {_shown(aname)}", lineno
                    )
                if found.group != target:
                    raise UnresolvedReference(
                        f"automorphism {_shown(aname)} acts on {_shown(found.group)}, "
                        f"not {_shown(target)}",
                        lineno,
                    )
            actions.append(ActionEntry(name, target, aut_names))
        elif head == "check":
            parts = rest.split()
            if len(parts) < 3 or parts[1] != "on":
                raise FixtureSyntaxError(
                    "usage: check CHECKNAME on TARGET [key=value ...]", lineno
                )
            cname, target = parts[0], parts[2]
            if target not in names:
                raise UnresolvedReference(f"no fixture named {_shown(target)}", lineno)
            params = {}
            for token in parts[3:]:
                key, eq, value = token.partition("=")
                if not key or not eq:
                    raise FixtureSyntaxError(
                        f"bad parameter {_shown(token)}, expected key=value", lineno
                    )
                if key in params:
                    raise DuplicateName(f"duplicate parameter {_shown(key)}", lineno)
                params[key] = value
            if any(c.check == cname and c.target == target for c in checks):
                raise DuplicateName(
                    f"duplicate check {_shown(cname)} on {_shown(target)}", lineno
                )
            checks.append(CheckRequest(cname, target, tuple(sorted(params.items()))))
        else:
            raise FixtureSyntaxError(f"unknown directive {_shown(head)}", lineno, 1)

    if block is not None:
        raise FixtureSyntaxError(f"group {_named(block.name)}: missing end", block.lineno)
    if aut_block is not None:
        raise FixtureSyntaxError(
            f"aut {_named(aut_block['name'])}: missing end", aut_block["line"]
        )
    return FixtureFile(tuple(groups), tuple(auts), tuple(actions), tuple(checks))


def _group_line(block: _GroupBlock, head: str, rest: str, lineno: int) -> None:
    def want_int(value: str, what: str) -> int:
        if not _is_number(value):
            raise FixtureSyntaxError(f"{what} must be a number, got {_shown(value)}", lineno)
        return int(value)

    if head == "end":
        return
    if head == "backend":
        if rest not in ("pc", "perm"):
            raise FixtureSyntaxError(f"backend must be pc or perm, got {_shown(rest)}", lineno)
        block.backend = rest
        return
    if block.backend is None:
        raise FixtureSyntaxError("backend must come before other fields", lineno)
    pc, perm = block.backend == "pc", block.backend == "perm"
    if head == "prime" and pc:
        block.prime = want_int(rest, "prime")
    elif head == "ngens" and pc:
        block.ngens = want_int(rest, "ngens")
    elif head == "pow" and pc:
        left, eq, word = rest.partition("=")
        if not eq:
            raise FixtureSyntaxError("usage: pow I = WORD", lineno)
        i = want_int(left.strip(), "generator index")
        if i in block.powers:
            raise DuplicateName(f"duplicate pow {i}", lineno)
        parsed = _parse_word(word, lineno)
        if parsed:  # identity right-hand sides are stored by omission
            block.powers[i] = parsed
    elif head == "comm" and pc:
        left, eq, word = rest.partition("=")
        if not eq:
            raise FixtureSyntaxError("usage: comm J I = WORD", lineno)
        parts = left.split()
        if len(parts) != 2:
            raise FixtureSyntaxError("usage: comm J I = WORD", lineno)
        j, i = want_int(parts[0], "index"), want_int(parts[1], "index")
        if (j, i) in block.comms:
            raise DuplicateName(f"duplicate comm {j} {i}", lineno)
        parsed = _parse_word(word, lineno)
        if parsed:
            block.comms[(j, i)] = parsed
    elif head == "degree" and perm:
        block.degree = want_int(rest, "degree")
    elif head == "gen" and perm:
        if block.degree is None:
            raise FixtureSyntaxError("degree must come before gen lines", lineno)
        name, eq, cyc = rest.partition("=")
        name = name.strip()
        if not eq or not name:
            raise FixtureSyntaxError("usage: gen NAME = CYCLES", lineno)
        if any(g[0] == name for g in block.gens):
            raise DuplicateName(f"duplicate generator {_shown(name)}", lineno)
        block.gens.append((name, _parse_cycles(cyc, block.degree, lineno)))
    else:
        raise FixtureSyntaxError(
            f"{_shown(head)} is not valid for backend {block.backend}", lineno, 1
        )


def _image_line(aut_block: dict, rest: str, lineno: int) -> None:
    left, eq, right = rest.partition("=")
    left = left.strip()
    if not eq or not left:
        raise FixtureSyntaxError("usage: image GEN = VALUE", lineno)
    entry = aut_block["entry"]
    if isinstance(entry.presentation, PcPresentation):
        if not _is_number(left):
            raise FixtureSyntaxError(
                f"pc generator index expected, got {_shown(left)}", lineno
            )
        idx = int(left)
        word = _parse_word(right, lineno)
        for i in (idx, *(i for i, _ in word)):
            if not 1 <= i <= entry.presentation.ngens:
                raise UnresolvedReference(f"no generator {i} in {_named(entry.name)}", lineno)
        if any(i == idx for i, _ in aut_block["images"]):
            raise DuplicateName(f"duplicate image for generator {idx}", lineno)
        aut_block["images"].append((idx, word))
    else:
        gen_names = [g[0] for g in entry.presentation.generators]
        if left not in gen_names:
            raise UnresolvedReference(
                f"no generator {_shown(left)} in {_named(entry.name)}", lineno
            )
        if any(n == left for n, _ in aut_block["images"]):
            raise DuplicateName(f"duplicate image for generator {_shown(left)}", lineno)
        value = right.strip()
        if value.startswith("("):
            expr = ("cycles", _parse_cycles(value, entry.presentation.degree, lineno))
        else:
            factors = []
            for token in value.split():
                name, _, exp = token.partition("^")
                if name not in gen_names:
                    raise UnresolvedReference(
                        f"no generator {_shown(name)} in {_named(entry.name)}", lineno
                    )
                if exp and not _is_number(exp):
                    raise FixtureSyntaxError(f"bad factor {_shown(token)}", lineno)
                factors.append((name, int(exp) if exp else 1))
            if not factors:
                raise FixtureSyntaxError("empty image word", lineno)
            expr = ("word", tuple(factors))
        aut_block["images"].append((left, expr))


def _finish_aut(aut_block: dict) -> AutEntry:
    entry = aut_block["entry"]
    images = aut_block["images"]
    if isinstance(entry.presentation, PcPresentation):
        have = {i for i, _ in images}
        need = set(range(1, entry.presentation.ngens + 1))
        missing = sorted(need - have)
        if missing:
            raise FixtureSyntaxError(
                f"aut {_named(aut_block['name'])}: missing image for generator(s) "
                f"{', '.join(map(str, missing))}",
                aut_block["line"],
            )
        images = sorted(images)
    else:
        have = {n for n, _ in images}
        need = {g[0] for g in entry.presentation.generators}
        missing = sorted(need - have)
        if missing:
            raise FixtureSyntaxError(
                f"aut {_named(aut_block['name'])}: missing image for generator(s) "
                f"{', '.join(map(_named, missing))}",
                aut_block["line"],
            )
        order = {g[0]: k for k, g in enumerate(entry.presentation.generators)}
        images = sorted(images, key=lambda item: order[item[0]])
    return AutEntry(aut_block["name"], entry.name, tuple(images))


# -- serialization ------------------------------------------------------


def _format_word(word: tuple) -> str:
    return " ".join(f"{i}^{e}" for i, e in word)


def serialize_fixture(fx: FixtureFile) -> str:
    out: list = []
    for g in fx.groups:
        out.append(f"group {g.name}")
        out.append(f"backend {g.backend}")
        if g.backend == "pc":
            pres = g.presentation
            out.append(f"prime {pres.p}")
            out.append(f"ngens {pres.ngens}")
            for i in sorted(pres.powers):
                out.append(f"pow {i} = {_format_word(pres.powers[i])}")
            for j, i in sorted(pres.commutators):
                out.append(f"comm {j} {i} = {_format_word(pres.commutators[(j, i)])}")
        else:
            pres = g.presentation
            out.append(f"degree {pres.degree}")
            for name, perm in pres.generators:
                out.append(f"gen {name} = {_perm_repr(perm)}")
        out.append("end")
        out.append("")
    for a in fx.auts:
        out.append(f"aut {a.name} on {a.group}")
        for gen, value in a.images:
            if isinstance(gen, int):
                out.append(f"image {gen} = {_format_word(value)}")
            elif value[0] == "cycles":
                out.append(f"image {gen} = {_perm_repr(value[1])}")
            else:
                word = " ".join(
                    name if e == 1 else f"{name}^{e}" for name, e in value[1]
                )
                out.append(f"image {gen} = {word}")
        out.append("end")
        out.append("")
    for act in fx.actions:
        out.append(f"action {act.name} on {act.group} = {' '.join(act.auts)}")
    if fx.actions:
        out.append("")
    for req in fx.checks:
        tail = "".join(f" {k}={v}" for k, v in req.params)
        out.append(f"check {req.check} on {req.target}{tail}")
    return "\n".join(out).strip() + "\n"


# -- realization ---------------------------------------------------------


def _realized(kind: str, name: str, build, *args):
    """build(*args); a refusal is re-raised as its own class, led by 'KIND NAME: '."""
    try:
        return build(*args)
    except GroupLabError as exc:
        raise type(exc)(f"{kind} {_named(name)}: {exc}") from exc


def realize_groups(fx: FixtureFile) -> dict:
    return {g.name: _realized("group", g.name, build_group, g.presentation) for g in fx.groups}


def _product_of_powers(G: FiniteGroup, factors) -> int:
    """Index of the product of x^e over (index x, exponent e >= 0) factors, by kept power maps."""
    out = G._e
    for x, e in factors:
        out = kernels._product(G, out, kernels._power_map(G, e)[x])
    return int(out)


def realize_automorphism(entry: AutEntry, G: FiniteGroup) -> Automorphism:
    """The automorphism of G an aut entry names, verified on generator image indices.

    A pc image is a word of (1-based generator index, exponent) pairs.
    """
    if entry.images and isinstance(entry.images[0][0], int):
        images = [
            _product_of_powers(G, [(G._gens[i - 1], e) for i, e in word])
            for _, word in entry.images
        ]
    else:
        by_name = dict(zip(G.generator_names, G._gens.tolist()))
        images = [
            G.element(value).idx
            if kind == "cycles"
            else _product_of_powers(G, [(by_name[n], e) for n, e in value])
            for _, (kind, value) in entry.images
        ]
    return Automorphism._on_indices(G, G, images)


def realize_automorphisms(fx: FixtureFile, groups: dict) -> dict:
    return {
        a.name: _realized("aut", a.name, realize_automorphism, a, groups[a.group])
        for a in fx.auts
    }
