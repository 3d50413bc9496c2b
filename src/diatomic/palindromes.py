"""Right palindromic closure and the iterated palindromization map.

The map sends a directive word v = x1 x2 ... xn to the palindrome
obtained by starting from the empty word and alternately appending the
next directive letter and closing to the shortest palindrome with that
prefix.  Its images are exactly the central words: the palindromic
prefixes of characteristic Sturmian words, or equivalently the words
with two coprime periods p, q and length p + q - 2.

The closure itself finds the longest palindromic suffix with string
search: a palindromic suffix of w starts where w and reverse(w) agree
for the rest of w, so its candidate starts are the occurrences in w of
a short prefix of reverse(w), found and confirmed in C.  Words where
too many candidates fail, periodic ones, fall back on the
Knuth-Morris-Pratt loop, which keeps the worst case linear.

Each step extends the image by its new minimal period.  Images of up to
``_BLOCK`` letters are built by ``str`` concatenation, which costs least
per call at that size.  Longer ones are joined once from pieces: through
a run of x that starts at v[i], psi(v) repeats its block psi(v[:i - 1])
v[i - 1] x, so each run's block is the block below it repeated, as a
list of the same ``str`` pieces, plus two letters.  The joined word is
the only allocation of its size, and one builder serves psi, psi_prefix
and framed_psi (the Christoffel word a psi(v) b).  psi_inverse builds no
image: it reads the directive off the word run by run and compares the
word with itself in place.
"""

from __future__ import annotations

from .words import BudgetError, _borders, check_word

#: Ceiling (in letters) for materialized palindromization images.
#: Image length is Fibonacci-like in the directive length, so this guards
#: against accidental memory exhaustion, not against honest large runs.
PSI_LENGTH_BUDGET = 2**30


#: pal_closure searches for this many leading letters of reverse(w) ...
_SEED = 16
#: ... and hands over to the Knuth-Morris-Pratt loop when this many of
#: their occurrences fail to start a palindromic suffix.  A random word
#: over {a, b} has about one false occurrence per 2^16 letters, so words
#: of up to about 4 million random letters stay on the search.
_CANDIDATES = 64


def pal_closure(w: str) -> str:
    """Shortest palindrome having ``w`` as a prefix.

    Writing w = uQ with Q the longest palindromic suffix of w, the
    closure is u Q reverse(u).  With r = reverse(w) and n = len(w), the
    suffix w[s:] is a palindrome exactly when w ends with r[: n - s], so
    every suffix at least ``_SEED`` letters long that is a palindrome
    starts at an occurrence in w of the seed r[:_SEED].  The seed's
    occurrences are found from the left with ``str.find``, and one
    ``str.endswith`` confirms or rejects each: the first that passes
    starts Q.  When the seed occurs no more, Q is shorter than the seed,
    and each of those lengths is tried in turn.

    A periodic word such as a^k b a^(k+1) has many occurrences that
    fail.  After ``_CANDIDATES`` of them the closure falls back on the
    Knuth-Morris-Pratt loop, which finds len(Q) in O(len(w)) Python
    steps.  So the worst case stays linear: that loop plus a constant
    number of passes of string search and comparison, run in C.  Any
    string is accepted.

    >>> pal_closure("abaa")
    'abaaba'
    """
    r = w[::-1]
    n = len(w)
    seed = r[:_SEED]
    s = -1
    for _ in range(_CANDIDATES):
        s = w.find(seed, s + 1)
        if s < 0:  # Q is shorter than the seed
            k = len(seed) - 1
            while not w.endswith(r[:k]):
                k -= 1
            return w + r[k:]
        if w.endswith(r[: n - s]):
            return w + r[n - s :]
    return w + r[_palindromic_suffix_length(w, r) :]


def _palindromic_suffix_length(w: str, r: str) -> int:
    # len(Q) for w and r = reverse(w), in O(len(w)): Q is the longest
    # border of r + "#" + w, read off the Knuth-Morris-Pratt prefix
    # function as the border array of r, then r matched along w, ending
    # at a match of length len(Q).  A match never outgrows the letters
    # read, so no separator is needed and any string is accepted.
    border = _borders(r)
    k = 0
    for c in w:
        while k and c != r[k]:
            k = border[k - 1]
        if c == r[k]:
            k += 1
    return k


def period_pair(v: str) -> tuple[int, int]:
    """The pair (p_a, p_b) of periods attached to a directive word.

    p_x(v) is the length of mu_v(x) (see :func:`mu`); the two values are
    coprime, their sum is len(psi(v)) + 2, and each is computed by the
    O(len(v)) recurrence that appending a letter x keeps p_x and adds it
    to the other component.  The values grow like Fibonacci numbers, so
    plain unbounded integers are required.

    >>> period_pair("abaa")
    (3, 8)
    """
    pa = pb = 1
    for x in v:
        if x == "a":
            pb += pa
        else:
            pa += pb
    return pa, pb


def _period_pair_capped(v: str, cap: int) -> tuple[int, int]:
    # period_pair(v) while p_a + p_b stays at most ``cap``; past it, the
    # pair of the first of the prefixes of 64, 128, 256, ... letters whose
    # sum passes ``cap``.  The sum only grows, so a caller that compares it
    # with ``cap`` refuses after reading 64 letters, or under 4 times the
    # shortest prefix past it (about 45 letters of alternation pass 2^30),
    # not all of v
    n = 64
    while True:
        pa, pb = period_pair(v[:n])
        if pa + pb > cap or n >= len(v):
            return pa, pb
        n *= 2


#: The longest image that psi and framed_psi build by ``str``
#: concatenation; longer ones, and every psi_prefix, are joined from a
#: list of ``str`` pieces, in which a period shorter than this is first
#: repeated into one piece past it, so that an image of N letters is
#: O(N / ``_BLOCK``) pieces.  It is also
#: the longest word that psi_inverse reads one run per strided slice and
#: compares with itself at once; longer words it reads and compares in
#: slices of at most this many letters, so that each temporary reuses
#: memory the allocator already holds.  And it is the longest Christoffel
#: word that ``christoffel_by_slope`` builds by ``str`` concatenation;
#: longer ones it joins from pieces the same way.
_BLOCK = 1 << 16


def _cycle(block: list[str], size: int, n: int) -> list[str]:
    # the first n letters of the word ``block`` (pieces, ``size`` letters)
    # repeated, as pieces.  A block shorter than _BLOCK is joined and
    # repeated as one str: to n letters when n <= _BLOCK, or else to whole
    # copies past _BLOCK letters, which repeat as one piece
    if size < _BLOCK:
        word = "".join(block)
        if n <= _BLOCK:
            return [word * (n // size) + word[: n % size]]
        block = [word * (_BLOCK // size + 1)]
        size = len(block[0])
    pieces = block * (n // size)
    rest = n % size
    for piece in block:  # rest < size: some piece holds the last letter
        if rest <= len(piece):
            break
        pieces.append(piece)
        rest -= len(piece)
    pieces.append(piece[:rest])
    return pieces


def _image_pieces(v: str, n: int) -> list[str]:
    # the first n letters of psi(v x x x ...), x the last letter of v, as
    # pieces.  Through a run of x from v[i] on, the image repeats the
    # block psi(v[:i - 1]) v[i - 1] x of p_x letters, whose first p_x - 2
    # letters repeat the previous run's block.  One walk reads the runs
    # with str.find, up to the one whose image reaches n letters
    block, size = [v[0]], 1  # the first run's image is its letter repeated
    pa = pb = 1
    i = 0
    while i < len(v):
        x = v[i]
        j = v.find("b" if x == "a" else "a", i)
        if j < 0:
            j = len(v)
        if x == "a":
            p, pb = pa, pb + (j - i) * pa
        else:
            p, pa = pb, pa + (j - i) * pb
        if i:
            block, size = _cycle(block, size, p - 2) + [v[i - 1 : i + 1]], p
        if pa + pb - 2 >= n:
            break
        i = j
    return _cycle(block, size, n)


def _short_image(v: str) -> str:
    # psi(v) on ``str``, for images of at most ``_BLOCK`` letters: each
    # letter extends the image w by its new minimal period p, as
    # concatenations
    w = ""
    pa = pb = 1
    for x in v:
        if x == "a":
            p, pb = pa, pa + pb
        else:
            p, pa = pb, pa + pb
        if p == len(w) + 1:  # x has not occurred yet: the closure is w x w
            w = w + x + w
        else:  # the new letters repeat the last p
            w += w[len(w) - p :]
    return w


def _check_budget(length: int, what: str = "palindromization image") -> int:
    # ``length``, after checking it against ``PSI_LENGTH_BUDGET``; the
    # message names ``what`` and only the budget, as the length may have
    # more digits than Python converts to a string
    if length > PSI_LENGTH_BUDGET:
        raise BudgetError(f"{what} exceeds the budget of {PSI_LENGTH_BUDGET} letters")
    return length


def _image_length(v: str) -> int:
    # len(psi(v)), with v checked to be over {a, b} and the length
    # checked against the budget, before anything is built
    pa, pb = _period_pair_capped(check_word(v), PSI_LENGTH_BUDGET + 2)
    return _check_budget(pa + pb - 2)


def psi(v: str) -> str:
    """Iterated palindromic closure of the directive word ``v``.

    Each step extends the current palindrome by exactly its new minimal
    period, so the whole image is built in time linear in its length
    instead of rescanning for palindromic suffixes.  A directive with a
    letter other than a and b raises ValueError.  The image length
    pa + pb - 2 is known next: when it exceeds ``PSI_LENGTH_BUDGET`` a
    :class:`BudgetError` is raised before anything is allocated.  An
    image of up to ``_BLOCK`` letters is then built by ``str``
    concatenation, and a longer one joined once from the pieces of its
    periods.

    >>> psi("aba")
    'abaaba'
    """
    length = _image_length(v)
    if length <= _BLOCK:
        return _short_image(v)
    return "".join(_image_pieces(v, length))


def framed_psi(v: str) -> str:
    """The Christoffel word a psi(v) b, with psi's letter and budget
    checks first: framed on ``str`` up to ``_BLOCK`` central letters,
    past them joined once with the pieces of psi(v).

    >>> framed_psi("abaa")
    'aabaabaabab'
    """
    length = _image_length(v)
    if length <= _BLOCK:
        return "a" + _short_image(v) + "b"
    return "".join(["a", *_image_pieces(v, length), "b"])


def psi_prefix(preperiod: str, period: str, n: int) -> str:
    """Length-``n`` prefix of the palindromization of the infinite
    directive word ``preperiod . period . period ...``.

    With empty preperiod and period ``ab`` this produces prefixes of the
    Fibonacci word abaababaabaab...  Both words must be over {a, b}, and
    ``n`` must not exceed ``PSI_LENGTH_BUDGET``.
    """
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    if not period:
        raise ValueError("period word must be non-empty")
    check_word(preperiod)
    check_word(period)
    _check_budget(n)
    # past the preperiod, a period with both letters at least doubles
    # p_a + p_b, so these periods reach n letters; a period of one letter
    # ends in a run that the builder extends without end
    return "".join(_image_pieces(preperiod + period * (n.bit_length() + 1), n))


def _run_length(w: str, i: int, p: int, other: str) -> int:
    # how many of w[i], w[i + p], w[i + 2p], ... come before the first
    # ``other``, read in strided slices of growing size
    stop = len(w)
    count, size = 0, 16
    while True:
        first = i + count * p
        last = first + size * p
        chunk = w[first : last if last < stop else stop : p]
        j = chunk.find(other)
        if j >= 0:
            return count + j
        count += len(chunk)
        if last >= stop:
            return count
        if size < _BLOCK:
            size *= 2


def _has_period(w: str, p: int) -> bool:
    # w repeats with period p: w[p:] is a prefix of w, compared at once
    # up to ``_BLOCK`` letters and a block at a time past them
    stop = len(w)
    if stop <= _BLOCK:
        return w.startswith(w[p:])
    for i in range(p, stop, _BLOCK):
        j = i + _BLOCK if i + _BLOCK < stop else stop
        if not w.startswith(w[i - p : j - p], i):
            return False
    return True


def psi_inverse(w: str) -> str | None:
    """Directive word of a central word, or None when ``w`` is not central.

    Every palindromic prefix of a central word is the image of a
    directive prefix, so each directive letter x is the letter right
    after the image read so far, and it extends the image by the period
    p_x.  The directive is read run by run: a run of x lasts while every
    p_x-th letter repeats it, read in one strided slice in a word of up
    to ``_BLOCK`` letters and in slices of growing size past them.  The
    word is then central exactly when the image ends at its last letter
    and the word has both periods p_a and p_b: a word of length
    p_a + p_b - 2 with both periods is fixed by two letters (Fine and
    Wilf), its first letter and the first occurrence of the other, and
    both were read.
    Words with a letter other than a and b are not central.

    >>> psi_inverse("abaaba")
    'aba'
    """
    runs = []
    pa = pb = 1
    n = 0
    short = len(w) <= _BLOCK  # each run read in one strided slice
    while n < len(w):
        x = w[n]
        if x == "a":
            p, other = pa, "b"
        elif x == "b":
            p, other = pb, "a"
        else:
            return None
        # a letter that is neither counts as x in the run and fails the
        # period check
        if short:
            run = w[n::p]
            c = run.find(other)
            if c < 0:
                c = len(run)
        else:
            c = _run_length(w, n, p, other)
        runs.append(x * c)
        if x == "a":
            pb += c * pa
        else:
            pa += c * pb
        n += c * p
    if n > len(w) or not (_has_period(w, pa) and _has_period(w, pb)):
        return None
    return "".join(runs)


def mu(v: str, w: str) -> str:
    """Image of ``w`` under the morphism composition mu_x1 o ... o mu_xn
    for v = x1 ... xn, where mu_x fixes x and sends the other letter y
    to xy.  The empty directive acts as the identity.

    >>> mu("a", "b")
    'ab'
    """
    out = w
    for x in reversed(v):
        if x == "a":
            out = out.replace("b", "ab")
        elif x == "b":
            out = out.replace("a", "ba")
        else:  # any other letter is its own complement: each one doubles
            out = out.replace(x, x + x)
    return out


def min_period_central(v: str) -> int:
    """Minimal period of psi(v), computed without building the image:
    min(p_a, p_b) of ``period_pair(v)``.

    Appending a letter keeps that letter's period and raises the other
    one to their sum, so the smaller one is the last letter's; the empty
    directive has the pair (1, 1).
    """
    return min(period_pair(v))
