"""Finite strict partial orders with a marked triple.

Elements are dense integer ids 0..n-1.  The strict order is stored as one
bitmask per element (``up[x]`` = set of elements strictly above x), always
transitively closed and irreflexive.  ``Poset`` and ``MarkedTriple`` are
frozen (assigning a field raises AttributeError) and safe to share across
threads.  ``_Record`` and ``_FrozenRecord`` give them and every other record
class of the package equality, repr, copying and pickling over its fields.

``Poset(n, rows)`` is the one constructor: it checks n and the rows and
closes any acyclic relation by ``_close``, the one closure walk, which
takes each element once its successors are closed and raises
CycleDetected on a cycle, a self-pair included.  The walk also gives
``cover_up[x]`` (the upper covers of x) and ``down[y]`` (elements strictly
below y), so both rows are attributes of every poset.  The search calls
``_close`` and ``_max_matching`` on bare rows and builds a poset only for
an instance that fails.  Everything
else is computed on first read and kept in the instance dict (where
``extensions`` also keeps what it counts): ``comparable``, ``covers``
(read off ``cover_up``) and the order parameters of the bounds:

* ``b[x]`` = b(x) = |{y : y <= x}|, ``b_star[x]`` = b*(x) = |{y : y >= x}|
* ``interval(x, y)`` = b(x,y) = |{z : x <= z <= y}|, 0 unless x <= y (no table)
* ``t[x]`` = max u(x,y), ``t_star[x]`` = max u*(x,y) over y || x, 1 if none,
  where u(x,y) = |{z <= x : z || y}| and u*(x,y) = |{z >= x : z || y}|
* ``width`` (largest antichain).

``load_poset``, ``FTable.from_json_obj`` and ``Certificate.from_json_obj``
read every field through the ``_json_*`` readers here, so all three check
integers and marks alike."""

from __future__ import annotations

import json
from operator import attrgetter

from .errors import BadParams, CycleDetected, IndexOutOfRange, MalformedInput

# the largest n of a poset, a table, a family parameter or a search: an input
# guard, not a limit of the bitmask rows, which are Python ints of any size;
# the counts are bounded by extensions.IDEAL_BUDGET and STATE_BUDGET
MAX_ELEMENTS = 64

SCHEMA = "posetlab/1"


class _Record:
    """Base of posetlab's record classes.  A subclass lists its fields in
    ``__slots__`` (or, when it keeps more slots, in ``_fields``), and the
    one ``__init__`` here takes them in that order: by position, then by
    keyword, then from the class's ``_defaults``, where a default that is a
    type (``list``, ``dict``) is called so that each record gets a fresh
    container.  TypeError names a field that is unknown, given twice or
    missing.  Equality (same class, equal fields), the repr
    ``Name(f=v, ...)``, ``copy`` and ``pickle`` read the same fields.
    Records are mutable and unhashable."""

    __slots__ = ()
    __hash__ = None
    _defaults = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__dict__.get("_fields", cls.__slots__)
        if fields:  # _FrozenRecord adds behaviour, not fields
            cls._fields = fields
            cls._values = staticmethod(attrgetter(*fields))

    def __init__(self, *args, **kwargs) -> None:
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)} positional values")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                value = kwargs.pop(field)
            elif field in self._defaults:
                value = self._defaults[field]
                if isinstance(value, type):
                    value = value()
            else:
                raise TypeError(f"{name} lacks field {field!r}")
            object.__setattr__(self, field, value)
        if kwargs:  # what is left was given by position too, or is no field
            key = next(iter(kwargs))
            problem = "got field {!r} twice" if key in fields else "has no field {!r}"
            raise TypeError(f"{name} {problem.format(key)}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self) -> str:
        items = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({items})"

    def __reduce__(self):
        return type(self), self._values(self)


class _FrozenRecord(_Record):
    """A record whose fields are set once, by ``_Record.__init__`` (or, in
    a subclass's own ``__init__``, by ``object.__setattr__``), and hashed
    together."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _cached:
    """A read-only attribute computed on first read and stored in the
    instance dict, which then shadows this (non-data) descriptor.  Unlike
    ``functools.cached_property`` it takes no lock: the value is a pure
    function of a frozen object, so a race at worst computes it twice."""

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Poset(_FrozenRecord):
    """Immutable strict partial order on 0..n-1, built from the bitmask rows
    of any acyclic relation (``up[x]``: some elements above x), closed or
    not.  ``up[x]``, ``down[x]`` and ``cover_up[x]`` are the elements above,
    below and covering x.  Raises IndexOutOfRange on a bad n or row and
    CycleDetected on a cycle.  Equality, hash and repr read ``(n, up)``;
    the instance dict holds only what is computed on first read."""

    __slots__ = ("n", "up", "down", "cover_up", "__dict__")
    _fields = ("n", "up")

    # its own: it closes the relation and sets slots that are not fields
    def __init__(self, n: int, up: tuple[int, ...]) -> None:
        _check_size(n)
        if len(up) != n:
            raise IndexOutOfRange(f"{len(up)} relation rows for n={n}")
        full = (1 << n) - 1
        for x, row in enumerate(up):
            if row & ~full:
                raise IndexOutOfRange(f"relation row {x} mentions elements >= n")
        up, down, cover_up = _close(n, up)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "up", tuple(up))
        object.__setattr__(self, "down", tuple(down))
        object.__setattr__(self, "cover_up", tuple(cover_up))

    # -- basic queries ----------------------------------------------------

    def less(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    @_cached
    def comparable(self) -> tuple[int, ...]:
        """comparable[x] = bitmask of elements comparable to x, x included,
        so x and y are incomparable exactly when bit y of it is clear."""
        return tuple(u | d | 1 << x for x, (u, d) in enumerate(zip(self.up, self.down)))

    @_cached
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction as a sorted tuple of (lower, upper) pairs."""
        return tuple(
            (x, y) for x, row in enumerate(self.cover_up) for y in range(self.n) if row >> y & 1
        )

    # -- order parameters, cached on first use ---------------------------

    @_cached
    def b(self) -> tuple[int, ...]:
        """b[x] = |{y : y <= x}|, the lower ideal of x with x included."""
        return tuple(d.bit_count() + 1 for d in self.down)

    @_cached
    def b_star(self) -> tuple[int, ...]:
        """b_star[x] = |{y : y >= x}|, the upper ideal of x with x included."""
        return tuple(u.bit_count() + 1 for u in self.up)

    def interval(self, x: int, y: int) -> int:
        """b(x, y) = |{z : x <= z <= y}|; 0 unless x <= y."""
        return ((self.up[x] | 1 << x) & (self.down[y] | 1 << y)).bit_count()

    @_cached
    def t(self) -> tuple[int, ...]:
        """t[x] = max over y || x of |{z <= x : z || y}|, 1 if there is no y."""
        return _incomparable_max(self, self.down)

    @_cached
    def t_star(self) -> tuple[int, ...]:
        """t_star[x] = max over y || x of |{z >= x : z || y}|, 1 if there is no y."""
        return _incomparable_max(self, self.up)

    @_cached
    def width(self) -> int:
        """Maximum antichain size, via minimum chain cover (Dilworth)."""
        return self.n - _max_matching(self.n, self.up)

    def relation_pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x in range(self.n) for y in range(self.n) if self.less(x, y)]

    # -- constructions ----------------------------------------------------

    def dual(self) -> "Poset":
        """Same ground set, relation reversed."""
        return Poset(self.n, self.down)

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"schema": SCHEMA, "n": self.n, "covers": [list(c) for c in self.covers]}


def _close(n: int, rows) -> tuple[list[int], list[int], list[int]]:
    """(up, down, cover_up) of the closure of ``rows``, the bitmask rows of
    an acyclic relation on 0..n-1, closed or not, by one walk that takes
    each element once its successors are closed.  CycleDetected on a
    cycle, a self-pair included.  ``Poset`` checks n and the rows first."""
    pending = (1 << n) - 1  # elements not closed yet
    up, down, cover_up, order = [0] * n, [0] * n, [0] * n, []
    while pending:
        before = left = pending
        while left:  # highest first: one sweep closes 0 < 1 < ... < n-1
            x = left.bit_length() - 1
            bit = 1 << x
            left ^= bit
            row = rows[x]
            if row & pending:  # a successor is still open
                continue
            above, rest = 0, row
            while rest:  # a y already inside ``above`` adds nothing
                y = rest & -rest
                above |= up[y.bit_length() - 1]
                rest &= ~above & (rest ^ y)
            up[x] = row | above
            cover_up[x] = row & ~above
            pending ^= bit
            order.append(x)
        if pending == before:  # every open element has an open successor
            for _ in range(n):  # n steps along open successors end on the cycle
                x = (rows[x] & pending).bit_length() - 1
            raise CycleDetected(f"element {x} lies on a cycle")
    for x in reversed(order):  # lower covers first, so down[x] is complete
        below, above = down[x] | 1 << x, cover_up[x]
        while above:
            y = above & -above
            above ^= y
            down[y.bit_length() - 1] |= below
    return up, down, cover_up


def _check_size(n: int) -> None:
    if not 1 <= n <= MAX_ELEMENTS:
        raise IndexOutOfRange(f"n={n} outside 1..{MAX_ELEMENTS}")


def _check_index(n: int, x: int) -> None:
    if not 0 <= x < n:
        raise IndexOutOfRange(f"element {x} outside 0..{n - 1}")


def check_marks(n: int, marks) -> None:
    """IndexOutOfRange for a mark outside 0..n-1, BadParams for a repeat."""
    for x in marks:
        _check_index(n, x)
    if len(set(marks)) != len(marks):
        raise BadParams(f"marked elements must be distinct, got {list(marks)}")


def build(n: int, cover_pairs) -> Poset:
    """Poset from (lower, upper) pairs; pairs need not be reduced.

    Raises CycleDetected on cyclic input or a self-pair, IndexOutOfRange on bad ids.
    """
    _check_size(n)
    rows = [0] * n
    for a, b in cover_pairs:
        _check_index(n, a)
        _check_index(n, b)
        rows[a] |= 1 << b
    return Poset(n, tuple(rows))


def chain(n: int) -> Poset:
    return build(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    return build(n, [])


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedInput(f"{what} must be an object, got {type(value).__name__}")
    return value


def _json_int(value, what: str, text: bool = False) -> int:
    """A JSON integer; with ``text``, also the string ``str`` writes for one
    (``int`` alone also reads "1_0", " 6 ", "+1", "01" and non-ASCII digits)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if text and isinstance(value, str):
        try:
            if str(int(value)) == value:
                return int(value)
        except ValueError:
            pass
    raise MalformedInput(f"{what} must be an integer, got {value!r}")


def _json_list(value, what: str, length: int | None = None):
    if not isinstance(value, (list, tuple)) or length is not None and len(value) != length:
        shape = "a list" if length is None else f"a list of {length}"
        raise MalformedInput(f"{what} must be {shape}, got {value!r}")
    return value


def _json_covers(value) -> list[tuple[int, int]]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(c, (list, tuple)) and len(c) == 2 for c in value
    ):
        raise MalformedInput(f"'covers' must be a list of pairs, got {value!r}")
    return [(_json_int(a, "cover element"), _json_int(b, "cover element")) for a, b in value]


def _json_marks(value, n: int) -> "MarkedTriple":
    """The marked triple ``z``, checked by ``check_marks``."""
    marks = [_json_int(x, "marked element") for x in _json_list(value, "'z'", 3)]
    check_marks(n, marks)
    return MarkedTriple(*marks)


def load_poset(obj_or_text) -> tuple[Poset, "MarkedTriple | None", int | None]:
    """Parse poset JSON; returns (poset, marked triple or None, marked element or None).

    Accepts non-reduced cover lists and extra keys.  Raises MalformedInput
    when the text is not JSON that Python can read (nested too deep, or an
    integer too long) or a field has the wrong shape or type, and
    IndexOutOfRange when a marked element is not an element id.
    """
    obj = obj_or_text
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise MalformedInput(f"poset input is not JSON: {exc}") from None
    obj = _json_object(obj, "poset JSON")
    p = build(_json_int(obj.get("n"), "'n'"), _json_covers(obj.get("covers", [])))
    z = obj.get("z")
    triple = None if z is None else _json_marks(z, p.n)
    a = obj.get("a")
    if a is not None:
        a = _json_int(a, "'a'")
        _check_index(p.n, a)
    return p, triple, a


# -- marked triple ---------------------------------------------------------


class MarkedTriple(_FrozenRecord):
    __slots__ = ("z1", "z2", "z3")

    # its own: it refuses repeated marks, which _Record.__init__ does not check
    def __init__(self, z1: int, z2: int, z3: int) -> None:
        if len({z1, z2, z3}) != 3:
            raise BadParams("marked elements must be distinct")
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)
        object.__setattr__(self, "z3", z3)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.z1, self.z2, self.z3)

    def reversed(self) -> "MarkedTriple":
        return MarkedTriple(self.z3, self.z2, self.z1)

    def swapped12(self) -> "MarkedTriple":
        return MarkedTriple(self.z2, self.z1, self.z3)


def is_normalized(p: Poset, z: MarkedTriple) -> bool:
    """Whether z1 < z2 < z3 in p; IndexOutOfRange for a mark outside 0..n-1."""
    check_marks(p.n, z.as_tuple())
    return p.less(z.z1, z.z2) and p.less(z.z2, z.z3)


def normalize(p: Poset, z: MarkedTriple) -> tuple[Poset, MarkedTriple]:
    """Add z1 < z2 < z3 to the poset when absent and re-close.

    Raises CycleDetected when the requested order conflicts with existing
    relations.
    """
    if is_normalized(p, z):
        return p, z
    rows = list(p.up)
    rows[z.z1] |= 1 << z.z2
    rows[z.z2] |= 1 << z.z3
    return Poset(p.n, tuple(rows)), z


# -- parameters ------------------------------------------------------------


def _incomparable_max(p: Poset, strict_rows) -> tuple[int, ...]:
    """t (down rows) or t* (up rows): for each x, the most elements of
    ``strict_rows[x] | x`` incomparable to one y || x, or 1 without such y."""
    full = (1 << p.n) - 1
    incomp = [full ^ c for c in p.comparable]
    out = []
    for x, row in enumerate(strict_rows):
        ideal, others = row | 1 << x, incomp[x]
        ys = (y for y in range(p.n) if others >> y & 1)
        out.append(max(((incomp[y] & ideal).bit_count() for y in ys), default=1))
    return tuple(out)


def _max_matching(n: int, adj: tuple[int, ...]) -> int:
    """Maximum bipartite matching, left/right both 0..n-1, adj as bitmasks."""
    match_r = [-1] * n

    def augment(v: int) -> bool:
        nonlocal seen
        bits = adj[v] & ~seen
        while bits:
            low = bits & -bits
            seen |= low
            u = low.bit_length() - 1
            if match_r[u] < 0 or augment(match_r[u]):
                match_r[u] = v
                return True
            bits &= ~seen  # the failed call marked the vertices it tried
        return False

    size = 0
    for v in range(n):
        seen = 0  # right vertices this augmentation has tried, as a bitmask
        if augment(v):
            size += 1
    return size


def width(p: Poset) -> int:
    """Maximum antichain size: ``p.width``."""
    return p.width


def params(p: Poset) -> Poset:
    """The poset itself, whose cached attributes ``b``, ``b_star``, ``t``,
    ``t_star``, ``width`` and ``interval(x, y)`` are the order parameters;
    kept so that ``params(p).b`` and the like still read them."""
    return p


# -- thin / flat -----------------------------------------------------------


def is_thin(p: Poset, z: MarkedTriple, t: int) -> bool:
    """Every element outside the marked set has n - b(u) - b*(u) <= t - 1."""
    return thin_threshold(p, z) <= t


def is_flat(p: Poset, z: MarkedTriple, t: int) -> bool:
    """Every marked element has b(u) + b*(u) <= t + 1."""
    return all(p.b[u] + p.b_star[u] <= t + 1 for u in z.as_tuple())


def thin_threshold(p: Poset, z: MarkedTriple) -> int:
    """Smallest t for which the poset is t-thin w.r.t. the marked set."""
    marked = set(z.as_tuple())
    worst = max(
        (p.n - p.b[u] - p.b_star[u] for u in range(p.n) if u not in marked),
        default=0,
    )
    return max(1, worst + 1)
