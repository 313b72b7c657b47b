"""The Farey tree of positive words in X and Y, for the tests.

Its words are the simple closed curves of one half of the Markoff tree
of the one-holed torus (Cohn, Ann. of Math. 61, 1955; Bowditch, Proc.
London Math. Soc. 77, 1998).  Neighbours u and v have the child uv, and
Fricke's identity tr(uv) + tr(uv^-1) = tr u tr v gives its trace with no
matrices, from the traces of u, v and their difference uv^-1.  The root
pair (X, Y) has the difference XY^-1, of trace tr X tr Y - tr XY; the
child's pairs (u, uv) and (uv, v) have the differences u v^-1 u^-1 and
u, of traces tr v and tr u.
"""


def farey_words(x, y, z, depth: int):
    """(letters, trace) for X, Y and each word of the Farey tree down to
    ``depth`` (XY is depth 0), the traces at tr X = x, tr Y = y and
    tr XY = z, in the arithmetic of the arguments."""
    yield (1,), x
    yield (2,), y
    stack = [((1,), x, (2,), y, x * y - z, 0)]
    while stack:
        u, tu, v, tv, td, level = stack.pop()
        w, tw = u + v, tu * tv - td
        yield w, tw
        if level < depth:
            stack.append((u, tu, w, tw, tv, level + 1))
            stack.append((w, tw, v, tv, tu, level + 1))
