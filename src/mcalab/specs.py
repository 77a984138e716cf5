"""JSON spec parsing: groups, rules, measures, frames, probes, experiments.

Every loader takes plain decoded JSON (dicts/lists) and raises SpecError
naming the offending field, so CLI diagnostics can point at the config
rather than at a traceback.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import SpecError
from .groups import (FiniteGroup, GroupMap, Subgroup, abelian_invariants,
                     center, from_table, make_cyclic, make_direct_sum,
                     make_quaternion, make_semidirect)
from .pseudo import PseudoFrame, make_frame
from .rules import McaRule
from .measures import MeasureSpec
from .spectral import Character, Probe
from .util import is_integer

__all__ = [
    "ExperimentConfig",
    "parse_group",
    "parse_endo",
    "parse_rule",
    "parse_measure",
    "parse_frame",
    "parse_character",
    "parse_probe",
    "load_experiment",
    "resolve_element",
]


@contextmanager
def _field(where: str):
    """Re-raise any failure inside the block as a SpecError naming ``where``."""
    try:
        yield
    except Exception as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _need(obj: dict, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SpecError(f"{where}: missing field {key!r}")
    return obj[key]


def _opt(obj: dict, key: str, default=None) -> Any:
    return obj.get(key, default) if isinstance(obj, dict) else default


def _flag(obj: dict, key: str, where: str) -> bool:
    """An optional JSON boolean field, false when absent."""
    val = _opt(obj, key, False)
    if not isinstance(val, bool):
        raise SpecError(f"{where}.{key}: need true or false")
    return val


def resolve_element(group: FiniteGroup, val, where: str) -> int:
    """An element given as an index or as one of the group's labels."""
    if isinstance(val, bool):
        raise SpecError(f"{where}: booleans do not name group elements")
    if isinstance(val, int):
        if not 0 <= val < group.order:
            raise SpecError(f"{where}: element index {val} outside group of "
                            f"order {group.order}")
        return val
    if isinstance(val, str):
        try:
            return group.labels.index(val)
        except ValueError:
            raise SpecError(f"{where}: no element labeled {val!r}") from None
    raise SpecError(f"{where}: element must be an index or label, "
                    f"got {type(val).__name__}")


def parse_group(obj: dict, where: str = "group") -> FiniteGroup:
    # serialized groups carry a table but no kind tag; accept them as-is
    if isinstance(obj, dict) and "kind" not in obj and "table" in obj:
        obj = {**obj, "kind": "table"}
    kind = _need(obj, "kind", where)
    if kind == "cyclic":
        n = _need(obj, "n", where)
        if not is_integer(n) or n < 1:
            raise SpecError(f"{where}.n: need a positive integer")
        return make_cyclic(n)
    if kind == "direct_sum":
        orders = _need(obj, "orders", where)
        if (not isinstance(orders, list) or not orders
                or not all(is_integer(k) and k >= 1 for k in orders)):
            raise SpecError(f"{where}.orders: need a nonempty list of "
                            "positive integers")
        return make_direct_sum(orders)
    if kind == "quaternion":
        return make_quaternion()
    if kind == "semidirect":
        normal = parse_group(_need(obj, "normal", where), f"{where}.normal")
        acting = parse_group(_need(obj, "acting", where), f"{where}.acting")
        action = _need(obj, "action", where)
        if not isinstance(action, list) or len(action) != acting.order:
            raise SpecError(f"{where}.action: need one automorphism "
                            f"image-array per acting element "
                            f"({acting.order} expected)")
        with _field(f"{where}.action"):
            return make_semidirect(normal, acting, action)
    if kind == "table":
        table = _need(obj, "table", where)
        with _field(f"{where}.table"):
            return from_table(table, _opt(obj, "labels"))
    raise SpecError(f"{where}.kind: unknown group kind {kind!r}")


def parse_endo(group: FiniteGroup, obj, where: str) -> GroupMap:
    """Endomorphism spec: "identity" | {"conj": g} | {"power": k} | {"images": [...]}."""
    if obj == "identity":
        return GroupMap.identity(group)
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: expected \"identity\" or an object")
    if "conj" in obj:
        g = resolve_element(group, obj["conj"], f"{where}.conj")
        return GroupMap(group, group,
                        [group.conjugate(g, x) for x in group.elements()],
                        True)
    if "power" in obj:
        k = obj["power"]
        if not is_integer(k):
            raise SpecError(f"{where}.power: need an integer exponent")
        if not group.is_abelian:
            raise SpecError(f"{where}.power: power maps are endomorphisms "
                            "only on abelian groups")
        return GroupMap(group, group,
                        [group.power(x, k) for x in group.elements()], True)
    if "images" in obj:
        images = obj["images"]
        if (not isinstance(images, list) or len(images) != group.order):
            raise SpecError(f"{where}.images: need {group.order} entries")
        imgs = [resolve_element(group, v, f"{where}.images[{i}]")
                for i, v in enumerate(images)]
        with _field(f"{where}.images"):
            return GroupMap(group, group, imgs, True)
    raise SpecError(f"{where}: unknown endomorphism spec "
                    f"(want identity/conj/power/images)")


def parse_rule(group: FiniteGroup, obj: dict, where: str = "rule") -> McaRule:
    hood = _need(obj, "neighborhood", where)
    if (not isinstance(hood, list) or len(hood) != 2
            or not all(map(is_integer, hood))):
        raise SpecError(f"{where}.neighborhood: need [v_lo, v_hi]")
    factors = _need(obj, "factors", where)
    if not isinstance(factors, list) or not factors:
        raise SpecError(f"{where}.factors: need a nonempty list")
    pairs = []
    for i, f in enumerate(factors):
        pos = _need(f, "pos", f"{where}.factors[{i}]")
        if not is_integer(pos):
            raise SpecError(f"{where}.factors[{i}].pos: need an integer")
        coeff = parse_endo(group, _need(f, "coeff", f"{where}.factors[{i}]"),
                           f"{where}.factors[{i}].coeff")
        pairs.append((pos, coeff))
    bias = resolve_element(group, _opt(obj, "bias", 0), f"{where}.bias")
    one_sided = _flag(obj, "one_sided", where)
    with _field(where):
        return McaRule(group, hood[0], hood[1], pairs, bias=bias,
                       one_sided=one_sided)


def _as_fraction(val, where: str) -> Fraction:
    """Probabilities as "9/10" / "0.9" strings, [num, den] integer pairs, or ints."""
    with _field(where):
        if isinstance(val, str):
            return Fraction(val)
        if isinstance(val, list) and len(val) == 2 and all(map(is_integer, val)):
            return Fraction(val[0], val[1])
        if is_integer(val):
            return Fraction(val)
    raise SpecError(f"{where}: probabilities must be exact — use a string "
                    "like \"9/10\" or \"0.9\", or a [num, den] pair of "
                    "integers")


def parse_measure(size: int, obj: dict, where: str = "measure") -> MeasureSpec:
    kind = _need(obj, "kind", where)
    if kind == "uniform":
        return MeasureSpec("uniform", size)
    if kind == "bernoulli":
        probs = _need(obj, "probs", where)
        if not isinstance(probs, list) or len(probs) != size:
            raise SpecError(f"{where}.probs: need {size} probabilities")
        vals = [_as_fraction(p, f"{where}.probs[{i}]")
                for i, p in enumerate(probs)]
        with _field(where):
            return MeasureSpec("bernoulli", size, probs=vals)
    if kind == "markov":
        trans = _need(obj, "transition", where)
        if (not isinstance(trans, list) or len(trans) != size
                or not all(isinstance(r, list) and len(r) == size
                           for r in trans)):
            raise SpecError(f"{where}.transition: need a {size}x{size} matrix")
        rows = [[_as_fraction(p, f"{where}.transition[{i}][{j}]")
                 for j, p in enumerate(row)] for i, row in enumerate(trans)]
        init = _need(obj, "initial", where)
        if not isinstance(init, list) or len(init) != size:
            raise SpecError(f"{where}.initial: need {size} probabilities")
        pi = [_as_fraction(p, f"{where}.initial[{i}]")
              for i, p in enumerate(init)]
        with _field(where):
            return MeasureSpec("markov", size, transition=rows, initial=pi)
    raise SpecError(f"{where}.kind: unknown measure kind {kind!r}")


def parse_frame(B: FiniteGroup, obj: dict, where: str = "frame") -> PseudoFrame:
    sub = _need(obj, "subgroup", where)
    if sub == "center":
        A = center(B)
    elif isinstance(sub, list):
        members = [resolve_element(B, v, f"{where}.subgroup[{i}]")
                   for i, v in enumerate(sub)]
        with _field(f"{where}.subgroup"):
            A = Subgroup(B, members)
    else:
        raise SpecError(f"{where}.subgroup: need \"center\" or a member list")
    section = _opt(obj, "section", "canonical")
    if section == "canonical":
        sec = None
    elif isinstance(section, list):
        sec = [resolve_element(B, v, f"{where}.section[{i}]")
               for i, v in enumerate(section)]
    else:
        raise SpecError(f"{where}.section: need \"canonical\" or a rep list")
    with _field(where):
        return make_frame(B, A, sec)


def parse_character(group: FiniteGroup, obj: dict, where: str) -> Character:
    """Character as {cell: coefficient-list} with cells as JSON string keys."""
    if not isinstance(obj, dict) or not obj:
        raise SpecError(f"{where}: need a nonempty object "
                        "mapping cell to coefficient list")
    with _field(where):
        coords = abelian_invariants(group)
    support: dict[int, tuple[int, ...]] = {}
    for key, coeffs in obj.items():
        try:
            cell = int(key)
        except ValueError:
            raise SpecError(f"{where}: cell key {key!r} is not an "
                            "integer") from None
        if cell in support:
            raise SpecError(f"{where}: cell key {key!r} names cell {cell} again")
        if (not isinstance(coeffs, list)
                or not all(map(is_integer, coeffs))):
            raise SpecError(f"{where}[{key}]: need a list of integer "
                            "coefficients")
        if len(coeffs) != len(coords.orders):
            raise SpecError(f"{where}[{key}]: need {len(coords.orders)} "
                            f"coefficients (one per invariant factor)")
        support[cell] = tuple(coeffs)
    with _field(where):
        return Character.make(coords, support)


def parse_probe(obj: dict, where: str,
                fibre_group: FiniteGroup | None = None,
                quotient_group: FiniteGroup | None = None) -> Probe:
    """Probe spec: {"id": str, "alpha": char-spec?, "phi": char-spec?}.

    ``alpha`` reads against the fibre group (the rule group itself when no
    frame is in play); ``phi`` against the quotient group.
    """
    pid = _need(obj, "id", where)
    if not isinstance(pid, str) or not pid:
        raise SpecError(f"{where}.id: need a nonempty string")
    alpha = phi = None
    if _opt(obj, "alpha") is not None:
        if fibre_group is None:
            raise SpecError(f"{where}.alpha: no fibre-factor group in this "
                            "configuration")
        alpha = parse_character(fibre_group, obj["alpha"], f"{where}.alpha")
    if _opt(obj, "phi") is not None:
        if quotient_group is None:
            raise SpecError(f"{where}.phi: no quotient-factor group in this "
                            "configuration (give a frame)")
        phi = parse_character(quotient_group, obj["phi"], f"{where}.phi")
    if alpha is None and phi is None:
        raise SpecError(f"{where}: probe needs at least one of alpha/phi")
    return Probe(pid, alpha, phi)


@dataclass
class ExperimentConfig:
    """One parsed config file: constructed objects plus raw parameters."""

    raw: dict
    group: FiniteGroup
    rule: McaRule | None = None
    frame: PseudoFrame | None = None
    use_tower: bool = False
    params: dict = field(default_factory=dict)

    def param(self, key: str, default=None):
        return self.params.get(key, default)


_KNOWN_KEYS = {"group", "rule", "frame", "tower", "measure", "measures",
               "init", "probes", "alpha", "n_max", "j_max",
               "thresholds", "tv_cells", "mc_samples", "mc_checkpoints",
               "cap_states", "seed"}


def _read_config(path) -> bytes:
    """The bytes of a config file, which must be UTF-8 text."""
    try:
        data = Path(path).read_bytes()
        data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise SpecError(f"config: cannot read {str(path)!r}: {reason}") from None
    return data


def load_experiment(source) -> ExperimentConfig:
    """Parse a config from a file path, its bytes, JSON text or a decoded dict;
    a ``str`` is JSON text when it starts with ``{`` after blanks, else a path."""
    if isinstance(source, dict):
        obj = source
    else:
        if isinstance(source, str) and source.lstrip().startswith("{"):
            text = source
        else:
            data = source if isinstance(source, bytes) else _read_config(source)
            text = data.decode("utf-8")
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(
                f"config: invalid JSON at line {exc.lineno}, column "
                f"{exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise SpecError("config: top level must be an object")
    unknown = set(obj) - _KNOWN_KEYS
    if unknown:
        raise SpecError(f"config: unknown fields {sorted(unknown)}")
    group = parse_group(_need(obj, "group", "config"))
    rule = None
    if "rule" in obj:
        rule = parse_rule(group, obj["rule"])
    frame = None
    if "frame" in obj:
        frame = parse_frame(group, obj["frame"])
    use_tower = _flag(obj, "tower", "config")
    if use_tower and frame is not None:
        raise SpecError("config: give either frame or tower, not both")
    params = {k: v for k, v in obj.items()
              if k not in ("group", "rule", "frame", "tower")}
    return ExperimentConfig(obj, group, rule, frame, use_tower, params)
