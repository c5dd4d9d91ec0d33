/* Native backend of bandset, a CPython extension module with six parts:

   * ``solve(n, L, lead, retry, s, lo, rhs, planes, r, offset)``: pivot
     insertion (the Ribbon construction of Dillinger & Walzer, 2021) and
     back-substitution of one band system over GF(2), for L <= 128 and at
     most 64 value bits, straight into the file's packed plane words. It
     derives each key's row from its digest words (the start word s and
     lo) with ``row_of``, as the query does, and walks and adds rows as
     the Python branch of ``retrieval_flat.solve`` does, but two at a
     time: one lane walks the rows of the first half, one those of the
     second, a table probe of each in turn, so that one walk's probe
     overlaps the other's. The pivot table is one array of slots, each a
     row and its right-hand side: 16 bytes per column with one-word rows
     (L <= 64), 24 with two-word rows. Any order of insertion gives the
     same pivots and solution, so both write the same bits. One pass over
     the columns fills all r planes, each with its own sliding window. It
     ORs each word's bits in atomically, so threads may solve
     neighbouring chunks that share a word at once.
   * the key hash, a seeded 128-bit multiply-fold hash that gives the
     same (hi, lo) words as its Python twin ``row_gen.key_digest``.
   * ``digest_pairs(items, seed, r)``: a build's one pass over its input,
     the fast path of ``row_gen.digest_pairs``. It takes only well-formed
     pairs (exact 2-tuples and 2-lists of a byte-string key and an integer
     value in [0, 2^r)), hashes each key and keeps each value as a uint64,
     and returns None at the first other pair: the Python pass owns every
     ingest error. Repeated keys are left to the caller. An exact bytes
     key with an exact int value is read without touching a reference
     count, since no user code can run there, and the loop prefetches the
     pairs a few steps ahead.
   * ``order_rows(digests, values, num_chunks)``: a build's rows in chunk
     order, each chunk by start word, in one counting pass, one scatter
     and a radix sort of each chunk in cache; the order that
     ``construct_chunked``'s reference path (an argsort of hi, gathers and
     ``row_gen.chunk_bounds``) gives. It returns None when two keys share
     hi, and that path then drops repeats or names the collision.
   * ``bind(seed, L, r, lead, directory, planes)``: one structure's
     lookup, for L <= 128 and at most 64 planes, a ``Lookup`` that holds
     the structure's words: the ints base_seed, L, r and lead
     (force_leading_one), checked once, and views of the buffers
     ``ds.directory.packed`` and ``ds.planes``, read in place and released
     when the lookup goes. ``lookup(key)`` answers one key,
     ``lookup.query_many(keys)`` an iterable of keys and
     ``lookup.query_block(data, bounds)`` the keys of one buffer where
     they lie (its lines, or the (start, end) pairs of bounds), answered
     as uint64, which is how ``bandset query`` answers a block. Every
     per-key bound is still checked on every call. All three share one
     lookup of a key's digest words, ``query_digest``.
   * ``read_tsv(data, r)``, ``scan_records(data, value_bytes)`` and
     ``digest_packed(data, bounds, seed)``: an input as one buffer.
     ``read_tsv`` scans the bytes of a TSV file once for each key's
     (start, end) and each value, the fast path of ``cli.read_tsv_pairs``;
     it takes only plain key<TAB>HEX lines and returns None for any other
     input, whose errors the Python loop owns. ``scan_records`` does the
     same for length-prefixed binary records, the fast path of
     ``cli._binary_records``, and returns None for a truncated record.
     ``digest_packed`` hashes each key where it lies in such a buffer, the
     fast path of ``row_gen.digest_pairs`` over a ``row_gen.PackedPairs``.

   The Python callers check shapes and pick the backend; the checks here
   only keep every read and write in bounds. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 u128;

/* ------------------------------------------------------------------------
   rows

   The arithmetic of row_gen.row_for_words, in one helper that the build's
   solve and the query both inline. */

static const uint64_t K1 = 0x9E3779B97F4A7C15ULL, K2 = 0xBF58476D1CE4E5B9ULL;
#define EXTRA (1u << 16)

static uint64_t remix(uint64_t x, uint64_t t)
{
    x = (x ^ t * K1) * K2;
    return x ^ x >> 31;
}

static uint64_t mulhi(uint64_t a, uint64_t b)
{
    return (uint64_t)((u128)a * b >> 64);
}

/* The row of digest words (s, lo) at retry in a table of n >= 1 starts,
   for 1 <= L <= 128 and lead 0 or 1: its start, 1 + mulhi(s, n), which
   lies in [1, n], and its L-bit pattern in *pattern, bit j for column
   start + j. */
static inline __attribute__((always_inline)) uint64_t row_of(uint64_t s, uint64_t lo, uint64_t retry,
                                                            uint64_t n, uint64_t L, int lead,
                                                            u128 *pattern)
{
    if (retry) {
        s = remix(s, retry);
        lo = remix(lo, retry);
    }
    /* masked per 64-bit word: one 128-bit mask made single-key lookups
       about 1.5% slower */
    uint64_t w0 = lo, w1 = L > 64 ? remix(lo, EXTRA + 1) : 0;
    if (L < 64)
        w0 &= (1ULL << L) - 1;
    else if (L > 64 && L < 128)
        w1 &= (1ULL << (L - 64)) - 1;
    *pattern = (u128)w1 << 64 | w0 | (uint64_t)lead;
    return 1 + mulhi(s, n);
}

/* ------------------------------------------------------------------------
   solve

   A walking or stored row never spans more than L bits from its current
   column: each of its source rows starts at or before that column, since
   walks only move right. This holds in any row order and any interleaving
   of walks, so a row fits `words` 64-bit words, bit 0 at its current
   column: one word for L <= 64, two up to 128. The pivot table is one
   array of slots by column, each a stored row's words and then its
   right-hand side: 16 bytes per column for one word, 24 for two. A
   stored row has bit 0 set, so a slot is empty iff its first word is 0. */

static unsigned ctz128(u128 x) /* x != 0 */
{
    uint64_t lo = (uint64_t)x;
    return lo ? (unsigned)__builtin_ctzll(lo) : 64u + (unsigned)__builtin_ctzll((uint64_t)(x >> 64));
}

static int parity128(u128 x)
{
    return __builtin_parityll((uint64_t)x ^ (uint64_t)(x >> 64));
}

/* OR bits into the little-endian word at p, kept little-endian on any
   host. Atomic, since a thread solving a neighbouring chunk may OR bits
   into the same word at once; relaxed, since the pool's join orders every
   write before the planes are read. */
static void or64(uint64_t *p, uint64_t x)
{
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    x = __builtin_bswap64(x);
#endif
    __atomic_fetch_or(p, x, __ATOMIC_RELAXED);
}

/* The rows of one solve: row i is row_of(s[i], lo[i], retry, n, L, lead)
   with right-hand side rhs[i]. */
struct rows {
    const uint64_t *s, *lo, *rhs;
    uint64_t retry, n, L;
    int lead;
};

/* One walk of pivot insertion: rows [i, end) are left to insert, and
   the row of i - 1 walks at column col, with words c0 and c1 (c1 only
   when two words) and right-hand side b. */
struct lane {
    int64_t i, end;
    uint64_t col, c0, c1, b;
};

enum { DEPENDENT, WALKING, DONE };

/* Moves a lane's row to its lowest 1; DEPENDENT when the row is 0, which
   is checked first, since a ctz of 0 is undefined. */
static inline __attribute__((always_inline)) int lane_align(int words, struct lane *w)
{
    if (words == 1) {
        if (!w->c0)
            return DEPENDENT;
        unsigned t = (unsigned)__builtin_ctzll(w->c0);
        w->col += t;
        w->c0 >>= t;
    } else {
        u128 c = (u128)w->c1 << 64 | w->c0;
        if (!c)
            return DEPENDENT;
        unsigned t = ctz128(c); /* < 128, so the shift is defined */
        w->col += t;
        c >>= t;
        w->c0 = (uint64_t)c;
        w->c1 = (uint64_t)(c >> 64);
    }
    return WALKING;
}

/* Starts a lane's next row, or reports it DONE when none is left. */
static inline __attribute__((always_inline)) int lane_next(int words, struct lane *w,
                                                           const struct rows *in)
{
    if (w->i == w->end)
        return DONE;
    u128 pattern;
    int64_t i = w->i++;
    w->col = row_of(in->s[i], in->lo[i], in->retry, in->n, in->L, in->lead, &pattern);
    w->c0 = (uint64_t)pattern;
    w->c1 = (uint64_t)(pattern >> 64);
    w->b = in->rhs[i];
    return lane_align(words, w);
}

/* One step of a walk, one probe of the table: an empty slot takes the
   row and the lane starts its next one; a full slot's row and right-hand
   side are added, and the row walks on to its lowest 1. */
static inline __attribute__((always_inline)) int lane_step(int words, struct lane *w,
                                                           uint64_t *table, const struct rows *in)
{
    uint64_t *slot = table + w->col * (words + 1);
    if (!slot[0]) {
        slot[0] = w->c0;
        if (words > 1)
            slot[1] = w->c1;
        slot[words] = w->b;
        return lane_next(words, w, in);
    }
    w->c0 ^= slot[0];
    if (words > 1)
        w->c1 ^= slot[1];
    w->b ^= slot[words];
    return lane_align(words, w);
}

/* Pivot insertion of all rows into table, slots of `words` row words and
   a right-hand side by column, zero on entry; 1 when every row found a
   pivot, 0 when some row reached 0. Two lanes walk rows [0, m/2) and
   [m/2, m), one step of each per turn, so that one walk's table probe
   overlaps the other's; when one lane is done the other walks on alone.
   Each step completes before the next begins, so each row is inserted
   against a table that rows of either lane have filled so far, and the
   pivots and solution are those of any one-at-a-time order. */
static inline __attribute__((always_inline)) int insert_rows(int words, uint64_t *table,
                                                             const struct rows *in, int64_t m)
{
    struct lane a = {.i = 0, .end = m / 2}, b = {.i = m / 2, .end = m};
    int sa = lane_next(words, &a, in), sb = lane_next(words, &b, in);
    while (sa == WALKING && sb == WALKING) {
        sa = lane_step(words, &a, table, in);
        sb = lane_step(words, &b, table, in);
    }
    while (sa == WALKING && sb == DONE)
        sa = lane_step(words, &a, table, in);
    while (sb == WALKING && sa == DONE)
        sb = lane_step(words, &b, table, in);
    return sa == DONE && sb == DONE;
}

/* Solves m rows, row_of(s[i], lo[i], retry, n, L, lead) with right-hand
   side rhs[i], through a table of slots of `words` row words, 1 when
   L <= 64 and 2 otherwise. planes holds r runs of nwords little-endian
   words, and column c of plane t is bit offset + c - 1 of run t; only 1
   bits are ORed in, a word at a time. Returns 1 when solved, 0 when the
   rows are dependent, -1 when out of memory, -2 when a pivot column lies
   past the planes; nothing is written unless it returns 1. */
static inline __attribute__((always_inline)) int band_solve(int words, int64_t n, int64_t L,
                                                            int lead, uint64_t retry, int64_t m,
                                                            const uint64_t *s, const uint64_t *lo,
                                                            const uint64_t *rhs, int64_t r,
                                                            uint64_t *planes, int64_t nwords,
                                                            int64_t offset)
{
    int64_t top = n + L - 1; /* the last column */
    uint64_t *table = calloc((size_t)top + 1, (words + 1) * sizeof *table);
    if (!table)
        return -1;
    struct rows in = {s, lo, rhs, retry, (uint64_t)n, (uint64_t)L, lead};
    int solved = insert_rows(words, table, &in, m);
    if (solved) {
        while (top && !table[top * (words + 1)])
            top--;
        if (top && top > 64 * nwords - offset)
            solved = -2;
    }
    /* Back-substitution of all r planes in one pass from the top pivot
       down, which loads each column's row and right-hand side once. Plane t
       slides its own window[t], bit j for column c + j, one column per
       step, so no shift reaches 128 bits; bits above L never meet a stored
       row, so they need no mask. A column without a pivot has row 0 and
       right-hand side 0, so it gets a 0. The window is also plane t's
       output: when the pass reaches the next word, its low 64 bits are the
       whole word just left, and after column 1 they are the last word's
       bits from bit offset % 64 up. */
    if (solved == 1 && top) {
        u128 window[64];
        int64_t word = (offset + top - 1) >> 6;
        memset(window, 0, sizeof window);
        for (int64_t c = top; c >= 1; c--) {
            int64_t p = offset + c - 1;
            if (p >> 6 != word) {
                for (int64_t t = 0; t < r; t++)
                    if ((uint64_t)window[t])
                        or64(planes + t * nwords + word, (uint64_t)window[t]);
                word = p >> 6;
            }
            const uint64_t *slot = table + c * (words + 1);
            u128 row = slot[0];
            if (words > 1)
                row |= (u128)slot[1] << 64;
            uint64_t b = slot[words];
            for (int64_t t = 0; t < r; t++, b >>= 1) {
                u128 w = window[t] << 1;
                window[t] = w | (parity128(w & row) ^ (b & 1));
            }
        }
        for (int64_t t = 0; t < r; t++) {
            uint64_t bits = (uint64_t)window[t] << (offset & 63);
            if (bits)
                or64(planes + t * nwords + word, bits);
        }
    }
    free(table);
    return solved;
}

/* solve(n, L, lead, retry, s, lo, rhs, planes, r, offset) -> True solved,
   False dependent; s, lo and rhs are buffers of one uint64 per row, planes
   one writable, 8-byte aligned buffer of r runs of whole words, for
   1 <= r <= 64. The GIL is released while the kernel runs. */
static PyObject *py_solve(PyObject *self, PyObject *args)
{
    long long n, L, retry, r, offset;
    int lead;
    Py_buffer s, lo, rhs, planes;
    int status = -3;

    if (!PyArg_ParseTuple(args, "LLpLy*y*y*w*LL", &n, &L, &lead, &retry, &s, &lo, &rhs, &planes, &r,
                          &offset))
        return NULL;
    int64_t m = s.len / 8;
    if (n < 1 || n >= (1LL << 62) || L < 1 || L > 128 || retry < 0 || offset < 0 || s.len % 8
        || r < 1 || r > 64)
        PyErr_SetString(PyExc_ValueError, "solve: unsupported shape");
    else if (lo.len != m * 8 || rhs.len != m * 8)
        PyErr_SetString(PyExc_ValueError, "s, lo and rhs must hold one uint64 per row");
    else if (planes.len % (8 * r))
        PyErr_SetString(PyExc_ValueError, "planes are not r runs of whole 64-bit words");
    else if ((uintptr_t)planes.buf % 8)
        PyErr_SetString(PyExc_ValueError, "planes are not 8-byte aligned");
    else {
        Py_BEGIN_ALLOW_THREADS
        int64_t nwords = planes.len / 8 / r;
        status = L <= 64 ? band_solve(1, n, L, lead, (uint64_t)retry, m, s.buf, lo.buf, rhs.buf, r,
                                      planes.buf, nwords, offset)
                         : band_solve(2, n, L, lead, (uint64_t)retry, m, s.buf, lo.buf, rhs.buf, r,
                                      planes.buf, nwords, offset);
        Py_END_ALLOW_THREADS
        if (status == -1)
            PyErr_Format(PyExc_MemoryError, "no memory for the pivot table of %lld columns", n + L - 1);
        else if (status == -2)
            PyErr_SetString(PyExc_ValueError, "rows reach outside the planes");
    }
    PyBuffer_Release(&s);
    PyBuffer_Release(&lo);
    PyBuffer_Release(&rhs);
    PyBuffer_Release(&planes);
    return status >= 0 ? PyBool_FromLong(status) : NULL;
}

/* ------------------------------------------------------------------------
   the key hash

   A seeded 128-bit multiply-fold hash in the style of wyhash and XXH3 (not
   bit-compatible with either): two 64-bit lanes a and b take in the key
   16 bytes at a time, each stripe XORed into the lanes and folded by two
   64x64->128 multiplies whose product halves are XORed together. The seed
   enters the first multiply and the key length the final mix, which makes
   the lanes hi and lo. row_gen.key_digest is the Python twin. */

/* odd words with 32 of 64 bits set (wyhash's default secret) */
static const uint64_t P0 = 0xA0761D6478BD642FULL, P1 = 0xE7037ED1A0B428DBULL,
                      P2 = 0x8EBC6AF09C88C6E3ULL, P3 = 0x589965CC75374CC3ULL;

/* A little-endian word; memcpy compiles to one load, a byte loop does not. */
static uint64_t load64(const uint8_t *p)
{
    uint64_t x;
    memcpy(&x, p, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    x = __builtin_bswap64(x);
#endif
    return x;
}

static uint64_t fold(uint64_t x, uint64_t y)
{
    u128 p = (u128)x * y;
    return (uint64_t)p ^ (uint64_t)(p >> 64);
}

static void stripe(uint64_t *a, uint64_t *b, const uint8_t *p)
{
    uint64_t x = load64(p) ^ *a, y = load64(p + 8) ^ *b;
    *a = fold(x ^ P0, y ^ P1);
    *b = fold(x ^ P2, y ^ P3);
}

/* Every stripe but the last is read in place; the last one, 0 to 16
   bytes, is read through a zeroed block, so no read passes the key. */
static void digest(uint64_t seed, const uint8_t *p, size_t n, uint64_t *hi, uint64_t *lo)
{
    uint64_t a = seed ^ P0, b = fold(seed ^ P1, P2), len = n;
    uint8_t tail[16] = {0};
    for (; n > 16; p += 16, n -= 16)
        stripe(&a, &b, p);
    memcpy(tail, p, n);
    stripe(&a, &b, tail);
    b ^= len;
    *hi = fold(a ^ P1, b ^ P2);
    *lo = fold(a ^ P3, b ^ P0);
}

/* A seed argument: an int in [0, 2^64); OverflowError or TypeError
   otherwise. */
static int seed_arg(PyObject *obj, uint64_t *seed)
{
    *seed = PyLong_AsUnsignedLongLong(obj);
    return *seed == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
}

/* Digest words of a bytes-like key; TypeError for anything else. */
static int key_words(uint64_t seed, PyObject *key, uint64_t *hi, uint64_t *lo)
{
    Py_buffer view;
    if (PyObject_GetBuffer(key, &view, PyBUF_SIMPLE) < 0)
        return -1;
    digest(seed, view.buf, (size_t)view.len, hi, lo);
    PyBuffer_Release(&view);
    return 0;
}

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

/* A little-endian word into 8 bytes. */
static void store64(uint8_t *p, uint64_t x)
{
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    x = __builtin_bswap64(x);
#endif
    memcpy(p, &x, 8);
}

/* 1, with its value in *v, when the int index lies in [0, 2^r); else 0. */
static int value_fits(PyObject *index, int r, uint64_t *v)
{
    int overflow;
    long long small = PyLong_AsLongLongAndOverflow(index, &overflow);
    if (!overflow) {
        *v = (uint64_t)small;
        return small >= 0 && (r == 64 || *v >> r == 0);
    }
    if (overflow < 0 || r < 64 || _PyLong_NumBits(index) > 64)
        return 0;
    *v = PyLong_AsUnsignedLongLongMask(index);
    return 1;
}

/* The key's digest into d: lo, then hi, little-endian. */
static void store_digest(uint64_t seed, const char *key, Py_ssize_t size, uint8_t *d)
{
    uint64_t hi, lo;
    digest(seed, (const uint8_t *)key, (size_t)size, &hi, &lo);
    store64(d, lo);
    store64(d + 8, hi);
}

/* One pair as row_gen.digest_pairs takes it without a second look: an
   exact 2-tuple or 2-list of a byte-string key and an integer value in
   [0, 2^r). Writes the key's digest (lo, then hi, little-endian) to d and
   the value to *v and returns 0. Returns 1 for any other pair, and for a
   value whose __index__ raises TypeError, so that the Python pass raises
   its error or takes the pair; -1 when __index__ raises anything else.
   The pair is read only before any user code runs, so the caller need not
   hold it. */
static int pair_words(uint64_t seed, PyObject *pair, int r, uint8_t *d, uint64_t *v)
{
    if (!(PyTuple_CheckExact(pair) || PyList_CheckExact(pair)) || Py_SIZE(pair) != 2)
        return 1;
    PyObject *key = PySequence_Fast_ITEMS(pair)[0], *value = PySequence_Fast_ITEMS(pair)[1];
    /* the common pair: no user code runs while it is read, so no reference
       is held */
    if (PyBytes_CheckExact(key) && PyLong_CheckExact(value)) {
        if (!value_fits(value, r, v))
            return 1;
        store_digest(seed, PyBytes_AS_STRING(key), PyBytes_GET_SIZE(key), d);
        return 0;
    }
    if (!PyBytes_Check(key) && !PyByteArray_Check(key))
        return 1;
    /* held: __index__ may edit a 2-list pair */
    Py_INCREF(key);
    Py_INCREF(value);
    PyObject *index = PyNumber_Index(value);
    int ret = 1;
    if (!index) {
        if (PyErr_ExceptionMatches(PyExc_TypeError))
            PyErr_Clear();
        else
            ret = -1;
    } else if (value_fits(index, r, v)) {
        /* the key is read only now: __index__ above may have resized a
           bytearray key */
        if (PyBytes_Check(key))
            store_digest(seed, PyBytes_AS_STRING(key), PyBytes_GET_SIZE(key), d);
        else
            store_digest(seed, PyByteArray_AS_STRING(key), PyByteArray_GET_SIZE(key), d);
        ret = 0;
    }
    Py_DECREF(key);
    Py_DECREF(value);
    Py_XDECREF(index);
    return ret;
}

/* Pairs that the digest_pairs loop prefetches ahead: the pair object
   itself PREFETCH_PAIRS ahead, its key and value objects half as far. */
#define PREFETCH_PAIRS 16

/* Prefetch what pair_words will read of the pairs ahead of item n. Only
   items still in the list are read, so each is alive. */
static void prefetch_ahead(PyObject *items, Py_ssize_t n)
{
    Py_ssize_t size = PySequence_Fast_GET_SIZE(items);
    if (n + PREFETCH_PAIRS < size)
        __builtin_prefetch(PySequence_Fast_GET_ITEM(items, n + PREFETCH_PAIRS));
    if (n + PREFETCH_PAIRS / 2 < size) {
        PyObject *pair = PySequence_Fast_GET_ITEM(items, n + PREFETCH_PAIRS / 2);
        if (PyTuple_CheckExact(pair) && PyTuple_GET_SIZE(pair) == 2) {
            const char *key = (const char *)PyTuple_GET_ITEM(pair, 0);
            __builtin_prefetch(key);
            __builtin_prefetch(key + 64);
            __builtin_prefetch(PyTuple_GET_ITEM(pair, 1));
        }
    }
}

/* digest_pairs(items, seed, r) -> (digests, values) or None, for a list
   or tuple items and 1 <= r <= 64: one pass that hashes each pair's key
   and keeps its value. digests is a bytearray of 16 bytes per pair (lo,
   then hi, little-endian), values a bytearray of one native-endian uint64
   per pair. None at the first pair that pair_words declines. */
static PyObject *py_digest_pairs(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t seed;
    if (check_nargs("digest_pairs", nargs, 3) < 0 || seed_arg(args[1], &seed) < 0)
        return NULL;
    long r = PyLong_AsLong(args[2]);
    if (r == -1 && PyErr_Occurred())
        return NULL;
    if (r < 1 || r > 64) {
        PyErr_SetString(PyExc_ValueError, "digest_pairs takes 1 <= r <= 64");
        return NULL;
    }
    PyObject *items = PySequence_Fast(args[0], "digest_pairs takes a list or tuple");
    if (!items)
        return NULL;
    Py_ssize_t cap = PySequence_Fast_GET_SIZE(items), n = 0;
    PyObject *digests = PyByteArray_FromStringAndSize(NULL, 16 * cap);
    PyObject *values = PyByteArray_FromStringAndSize(NULL, 8 * cap);
    PyObject *out = NULL;
    if (!digests || !values)
        goto done;
    /* the size is read at every step: a value's __index__ may change a
       list while it is walked */
    for (; n < PySequence_Fast_GET_SIZE(items); n++) {
        if (n == cap && (PyByteArray_Resize(digests, 16 * (cap = 2 * cap + 16)) < 0
                         || PyByteArray_Resize(values, 8 * cap) < 0))
            goto done;
        prefetch_ahead(items, n);
        uint64_t v;
        if (pair_words(seed, PySequence_Fast_GET_ITEM(items, n), (int)r,
                       (uint8_t *)PyByteArray_AS_STRING(digests) + 16 * n, &v))
            goto done;
        memcpy(PyByteArray_AS_STRING(values) + 8 * n, &v, 8);
    }
    if (n == cap || (PyByteArray_Resize(digests, 16 * n) == 0 && PyByteArray_Resize(values, 8 * n) == 0))
        out = PyTuple_Pack(2, digests, values);
done:
    if (!out && !PyErr_Occurred())
        out = Py_NewRef(Py_None);
    Py_XDECREF(digests);
    Py_XDECREF(values);
    Py_DECREF(items);
    return out;
}

/* ------------------------------------------------------------------------
   order

   A build's rows in chunk order, each chunk by ascending start word s:
   the order that construct_chunked's argsort of hi gives when no two keys
   share hi, since within a chunk s = hi * num_chunks mod 2^64 grows with
   hi. One counting pass and one scatter put the rows in chunk order; each
   chunk is then sorted in cache, by two 8-bit radix passes on the top 16
   bits of s and a finishing sort of each run that shares them. */

struct row {
    uint64_t s, lo, v;
};

/* Runs up to this long are finished by insertion sort, longer ones by
   heapsort, so keys crafted into one run cost O(n log n), not O(n^2). */
#define INSERTION_MAX 32

static void sift_down(struct row *rows, size_t i, size_t n)
{
    struct row x = rows[i];
    for (size_t child; (child = 2 * i + 1) < n; i = child) {
        if (child + 1 < n && rows[child + 1].s > rows[child].s)
            child++;
        if (rows[child].s <= x.s)
            break;
        rows[i] = rows[child];
    }
    rows[i] = x;
}

/* Sorts rows[0:n] by s. */
static void sort_rows(struct row *rows, size_t n)
{
    if (n <= INSERTION_MAX) {
        for (size_t i = 1; i < n; i++) {
            struct row x = rows[i];
            size_t j = i;
            for (; j && rows[j - 1].s > x.s; j--)
                rows[j] = rows[j - 1];
            rows[j] = x;
        }
        return;
    }
    for (size_t i = n / 2; i-- > 0;)
        sift_down(rows, i, n);
    for (size_t end = n - 1; end > 0; end--) {
        struct row top = rows[0];
        rows[0] = rows[end];
        rows[end] = top;
        sift_down(rows, 0, end);
    }
}

/* Sorts the n rows s[i], lo[i], v[i] by s through scratch, room for n
   rows. Returns 1 when two of them share s, else 0. */
static int sort_run(uint64_t *s, uint64_t *lo, uint64_t *v, size_t n, struct row *scratch)
{
    for (size_t i = 0; i < n; i++)
        scratch[i] = (struct row){s[i], lo[i], v[i]};
    sort_rows(scratch, n);
    for (size_t i = 0; i < n; i++) {
        s[i] = scratch[i].s;
        lo[i] = scratch[i].lo;
        v[i] = scratch[i].v;
        if (i && s[i] == s[i - 1])
            return 1;
    }
    return 0;
}

/* sort_run for one chunk: radix passes on bits 48-55, then 56-63 (stable,
   so the rows end up ordered by their top 16 bits), then sort_run on each
   run of rows that share those bits. */
static int sort_chunk(uint64_t *s, uint64_t *lo, uint64_t *v, size_t n, struct row *scratch)
{
    if (n <= INSERTION_MAX)
        return sort_run(s, lo, v, n, scratch);
    size_t low[256] = {0}, high[256] = {0}, a = 0, b = 0;
    for (size_t i = 0; i < n; i++) {
        low[s[i] >> 48 & 255]++;
        high[s[i] >> 56]++;
    }
    for (int d = 0; d < 256; d++) {
        size_t x = low[d], y = high[d];
        low[d] = a;
        high[d] = b;
        a += x;
        b += y;
    }
    for (size_t i = 0; i < n; i++)
        scratch[low[s[i] >> 48 & 255]++] = (struct row){s[i], lo[i], v[i]};
    for (size_t i = 0; i < n; i++) {
        struct row x = scratch[i];
        size_t j = high[x.s >> 56]++;
        s[j] = x.s;
        lo[j] = x.lo;
        v[j] = x.v;
    }
    for (a = 0; a < n; a = b) {
        for (b = a + 1; b < n && s[b] >> 48 == s[a] >> 48; b++)
            ;
        if (b - a > 1 && sort_run(s + a, lo + a, v + a, b - a, scratch))
            return 1;
    }
    return 0;
}

/* The m rows of digests (16 bytes each, lo then hi, little-endian) and
   values (native-endian uint64) into s, lo and v, in chunk order, each
   chunk by s; chunk c is rows bounds[c] to bounds[c + 1]. Returns 0 when
   done, 1 when two rows of a chunk share s (so share hi), -1 when out of
   memory. */
static int order_rows(const uint8_t *digests, const uint8_t *values, size_t m, size_t num_chunks,
                      int64_t *bounds, uint64_t *s, uint64_t *lo, uint64_t *v)
{
    size_t *next = calloc(num_chunks, sizeof *next), largest = 0;
    if (!next)
        return -1;
    for (size_t i = 0; i < m; i++)
        next[mulhi(load64(digests + 16 * i + 8), num_chunks)]++;
    bounds[0] = 0;
    for (size_t c = 0; c < num_chunks; c++) {
        if (next[c] > largest)
            largest = next[c];
        bounds[c + 1] = bounds[c] + (int64_t)next[c];
        next[c] = (size_t)bounds[c];
    }
    for (size_t i = 0; i < m; i++) {
        uint64_t hi = load64(digests + 16 * i + 8);
        size_t j = next[mulhi(hi, num_chunks)]++;
        s[j] = hi * num_chunks;
        lo[j] = load64(digests + 16 * i);
        memcpy(v + j, values + 8 * i, 8);
    }
    free(next);
    struct row *scratch = malloc((largest ? largest : 1) * sizeof *scratch);
    int status = scratch ? 0 : -1;
    for (size_t c = 0; c < num_chunks && status == 0; c++) {
        size_t a = (size_t)bounds[c];
        status = sort_chunk(s + a, lo + a, v + a, (size_t)bounds[c + 1] - a, scratch);
    }
    free(scratch);
    return status;
}

/* order_rows(digests, values, num_chunks) -> (bounds, s, lo, values) or
   None: the rows of digests (16 bytes per key, as digest_pairs gives
   them) and values (one native-endian uint64 per key) in the order of
   construct_chunked's reference path, for 1 <= num_chunks <= max(m, 1).
   bounds is a list of num_chunks + 1 ints, chunk c rows bounds[c] to
   bounds[c + 1]; s (the start words), lo and values are bytearrays of one
   native-endian uint64 per row. None when two keys share hi: the
   reference path then drops repeats or names the collision. The GIL is
   released while the rows are ordered. */
static PyObject *py_order_rows(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("order_rows", nargs, 3) < 0)
        return NULL;
    Py_ssize_t num_chunks = PyLong_AsSsize_t(args[2]);
    if (num_chunks == -1 && PyErr_Occurred())
        return NULL;
    Py_buffer digests, values = {.obj = NULL};
    if (PyObject_GetBuffer(args[0], &digests, PyBUF_SIMPLE) < 0)
        return NULL;
    PyObject *s = NULL, *lo = NULL, *v = NULL, *out = NULL;
    int64_t *bounds = NULL;
    Py_ssize_t m = digests.len / 16;
    int status;
    if (PyObject_GetBuffer(args[1], &values, PyBUF_SIMPLE) < 0)
        goto done;
    if (digests.len % 16 || values.len != 8 * m || num_chunks < 1 || num_chunks > (m > 1 ? m : 1)) {
        PyErr_SetString(PyExc_ValueError, "order_rows takes 16 digest bytes and one uint64 value "
                        "per key and 1 <= num_chunks <= max(m, 1)");
        goto done;
    }
    if (!(bounds = PyMem_Malloc(((size_t)num_chunks + 1) * sizeof *bounds))) {
        PyErr_NoMemory();
        goto done;
    }
    if (!(s = PyByteArray_FromStringAndSize(NULL, 8 * m))
        || !(lo = PyByteArray_FromStringAndSize(NULL, 8 * m))
        || !(v = PyByteArray_FromStringAndSize(NULL, 8 * m)))
        goto done;
    /* bytearray memory comes from the Python allocator, 16-byte aligned */
    Py_BEGIN_ALLOW_THREADS
    status = order_rows(digests.buf, values.buf, (size_t)m, (size_t)num_chunks, bounds,
                        (uint64_t *)PyByteArray_AS_STRING(s), (uint64_t *)PyByteArray_AS_STRING(lo),
                        (uint64_t *)PyByteArray_AS_STRING(v));
    Py_END_ALLOW_THREADS
    if (status == -1)
        PyErr_NoMemory();
    else if (status == 1)
        out = Py_NewRef(Py_None);
    else {
        PyObject *list = PyList_New(num_chunks + 1);
        for (Py_ssize_t c = 0; list && c <= num_chunks; c++) {
            PyObject *bound = PyLong_FromLongLong(bounds[c]);
            if (!bound)
                Py_CLEAR(list);
            else
                PyList_SET_ITEM(list, c, bound);
        }
        if (list)
            out = PyTuple_Pack(4, list, s, lo, v);
        Py_XDECREF(list);
    }
done:
    PyMem_Free(bounds);
    Py_XDECREF(s);
    Py_XDECREF(lo);
    Py_XDECREF(v);
    PyBuffer_Release(&values);
    PyBuffer_Release(&digests);
    return out;
}

/* ------------------------------------------------------------------------
   query

   The chunk split of row_gen.chunk_and_word, the row of row_of and the
   same reads as retrieval_chunked._query_words: two directory entries,
   then the words of each plane that hold the key's L-bit window. */

#define OFFSET_BITS 48
#define OFFSET_MASK ((1ULL << OFFSET_BITS) - 1)

/* What a query needs of a structure, checked once, when a lookup is
   bound: directory is num_chunks + 1 little-endian words, each offset |
   seed << 48, and plane t is the nwords little-endian words from byte
   8 * nwords * t of planes. */
struct query {
    uint64_t seed, L, r, num_chunks, nwords;
    int lead;
    Py_buffer directory, planes;
};

static void query_clear(struct query *q)
{
    /* no-ops while obj is NULL */
    PyBuffer_Release(&q->directory);
    PyBuffer_Release(&q->planes);
}

/* args[:6] are seed, L, r, lead, directory, planes. */
static int query_init(struct query *q, PyObject *const *args)
{
    long long L, r;
    q->directory.obj = q->planes.obj = NULL;
    if (seed_arg(args[0], &q->seed) < 0 || ((L = PyLong_AsLongLong(args[1])) == -1 && PyErr_Occurred())
        || ((r = PyLong_AsLongLong(args[2])) == -1 && PyErr_Occurred())
        || (q->lead = PyObject_IsTrue(args[3])) < 0
        || PyObject_GetBuffer(args[4], &q->directory, PyBUF_SIMPLE) < 0
        || PyObject_GetBuffer(args[5], &q->planes, PyBUF_SIMPLE) < 0)
        goto fail;
    if (L < 1 || L > 128 || r < 1 || r > 64 || q->directory.len < 16 || q->directory.len % 8
        || q->planes.len % (8 * r)) {
        PyErr_SetString(PyExc_ValueError, "query needs 1 <= L <= 128, 1 <= r <= 64, a directory "
                        "of two or more whole words and planes that are r runs of whole 64-bit words");
        goto fail;
    }
    q->L = (uint64_t)L;
    q->r = (uint64_t)r;
    q->num_chunks = (uint64_t)q->directory.len / 8 - 1;
    q->nwords = (uint64_t)q->planes.len / (8 * q->r);
    return 0;
fail:
    query_clear(q);
    return -1;
}

/* The value of the key with digest words (hi, lo) in *value: its chunk's
   two directory entries, then the words of each plane that hold its
   window. ValueError for a chunk with fewer than L bits, IndexError for a
   window that ends past a plane. L is q->L: query_key reads it before it
   hashes, which keeps the single-key lookup's machine code as it was. */
static inline __attribute__((always_inline)) int query_digest(const struct query *q, uint64_t L,
                                                              uint64_t hi, uint64_t lo,
                                                              uint64_t *value)
{
    uint64_t chunk = mulhi(hi, q->num_chunks), s = hi * q->num_chunks;
    const uint8_t *entry = (const uint8_t *)q->directory.buf + 8 * chunk;
    uint64_t p0 = load64(entry), p1 = load64(entry + 8);
    uint64_t offset = p0 & OFFSET_MASK, retry = p0 >> OFFSET_BITS, end = p1 & OFFSET_MASK;
    if (end < offset + L) {
        PyErr_Format(PyExc_ValueError, "directory gives chunk %llu fewer than L bits",
                     (unsigned long long)chunk);
        return -1;
    }
    u128 pattern;
    uint64_t start = row_of(s, lo, retry, end - offset - (L - 1), L, q->lead, &pattern);
    uint64_t w0 = (uint64_t)pattern, w1 = (uint64_t)(pattern >> 64);

    /* the pattern shifted to the window's bit offset, over words wi.. */
    uint64_t bit = offset + start - 1, wi = bit >> 6, span = ((bit + L - 1) >> 6) - wi;
    unsigned sh = bit & 63;
    uint64_t mask[3] = {w0 << sh, sh ? w0 >> (64 - sh) | w1 << sh : w1, sh ? w1 >> (64 - sh) : 0};
    if (wi + span >= q->nwords) {
        PyErr_Format(PyExc_IndexError, "window ends past a plane of %llu words",
                     (unsigned long long)q->nwords);
        return -1;
    }
    const uint8_t *window = (const uint8_t *)q->planes.buf + 8 * wi;
    *value = 0;
    for (uint64_t t = 0; t < q->r; t++) {
        uint64_t acc = 0;
        for (uint64_t k = 0; k <= span; k++)
            acc ^= load64(window + 8 * (t * q->nwords + k)) & mask[k];
        *value |= (uint64_t)__builtin_parityll(acc) << t;
    }
    return 0;
}

static int query_key(const struct query *q, PyObject *key, uint64_t *value)
{
    uint64_t hi, lo, L = q->L;
    if (key_words(q->seed, key, &hi, &lo) < 0)
        return -1;
    return query_digest(q, L, hi, lo, value);
}

/* A bound lookup: one structure's checked words and its two buffer
   views, held from bind to dealloc. Calling it answers one key. Its type
   is static with no tp_new, so Python cannot make one: bind makes every
   Lookup. */
typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    struct query q;
} Lookup;

static void lookup_dealloc(PyObject *self)
{
    query_clear(&((Lookup *)self)->q);
    Py_TYPE(self)->tp_free(self);
}

/* lookup(key) -> int */
static PyObject *lookup_call(PyObject *self, PyObject *const *args, size_t nargsf, PyObject *kwnames)
{
    uint64_t value;
    if (kwnames && PyTuple_GET_SIZE(kwnames)) {
        PyErr_SetString(PyExc_TypeError, "a lookup takes no keyword arguments");
        return NULL;
    }
    if (check_nargs("lookup", PyVectorcall_NARGS(nargsf), 1) < 0
        || query_key(&((Lookup *)self)->q, args[0], &value) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(value);
}

/* lookup.query_many(keys) -> list of int, one per key of the iterable
   keys */
static PyObject *lookup_query_many(PyObject *self, PyObject *keys)
{
    const struct query *q = &((Lookup *)self)->q;
    PyObject *it = PyObject_GetIter(keys);
    PyObject *out = it ? PyList_New(0) : NULL;
    PyObject *key;
    while (out && (key = PyIter_Next(it))) {
        uint64_t value;
        PyObject *v = query_key(q, key, &value) < 0 ? NULL : PyLong_FromUnsignedLongLong(value);
        Py_DECREF(key);
        if (!v || PyList_Append(out, v) < 0)
            Py_CLEAR(out);
        Py_XDECREF(v);
    }
    Py_XDECREF(it);
    if (out && PyErr_Occurred())
        Py_CLEAR(out);
    return out;
}

/* ------------------------------------------------------------------------
   packed input

   An input as one buffer: each key a (start, end) pair of int64 byte
   offsets into it, each value a uint64, hashed where the keys lie, for a
   build or for a block of queries. */

/* The value of an ASCII hex digit; -1 for any other byte. */
static int hex_digit(uint8_t c)
{
    if ((unsigned)(c - '0') < 10u)
        return c - '0';
    c |= 0x20; /* lowercase */
    return (unsigned)(c - 'a') < 6u ? c - 'a' + 10 : -1;
}

/* read_tsv(data, r) -> (bounds, values) or None: the pairs of the TSV
   bytes data, for 1 <= r <= 64. Lines end at \n; each loses its trailing
   run of \r, and a line left empty is skipped. Every other line must be
   key<TAB>HEX, the key the bytes before the first tab and HEX 1 to 16
   ASCII hex digits with a value below 2^r. bounds is a bytearray of two
   native-endian int64 per key, its start and end in data, and values a
   bytearray of one native-endian uint64 per key. None for any other line
   or r: cli.read_tsv_pairs reads such input in Python, which owns every
   error and every other form that int(_, 16) takes. */
static PyObject *py_read_tsv(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("read_tsv", nargs, 2) < 0)
        return NULL;
    long r = PyLong_AsLong(args[1]);
    if (r == -1 && PyErr_Occurred())
        return NULL;
    Py_buffer view;
    if (PyObject_GetBuffer(args[0], &view, PyBUF_SIMPLE) < 0)
        return NULL;
    const uint8_t *base = view.buf, *p = base, *end = base + view.len;
    Py_ssize_t cap = 1, n = 0; /* no more keys than lines */
    for (const uint8_t *q = p; (q = memchr(q, '\n', (size_t)(end - q))); q++)
        cap++;
    PyObject *bounds = PyByteArray_FromStringAndSize(NULL, 16 * cap);
    PyObject *values = PyByteArray_FromStringAndSize(NULL, 8 * cap);
    PyObject *out = NULL;
    int r_ok = r >= 1 && r <= 64;
    if (!bounds || !values)
        goto done;
    char *bp = PyByteArray_AS_STRING(bounds), *vp = PyByteArray_AS_STRING(values);
    /* p stops short of end at the first line that is not plain */
    while (r_ok && p < end) {
        const uint8_t *nl = memchr(p, '\n', (size_t)(end - p));
        const uint8_t *stop = nl ? nl : end, *next = nl ? nl + 1 : end;
        while (stop > p && stop[-1] == '\r')
            stop--;
        if (stop == p) {
            p = next;
            continue;
        }
        const uint8_t *tab = memchr(p, '\t', (size_t)(stop - p));
        if (!tab || stop - tab < 2 || stop - tab > 17)
            break;
        const uint8_t *q = tab + 1;
        uint64_t v = 0;
        for (int d; q < stop && (d = hex_digit(*q)) >= 0; q++)
            v = v << 4 | (uint64_t)d;
        if (q < stop || (r < 64 && v >> r))
            break;
        int64_t se[2] = {p - base, tab - base};
        memcpy(bp + 16 * n, se, 16);
        memcpy(vp + 8 * n, &v, 8);
        n++;
        p = next;
    }
    if (!r_ok || p < end)
        out = Py_NewRef(Py_None);
    else if (PyByteArray_Resize(bounds, 16 * n) == 0 && PyByteArray_Resize(values, 8 * n) == 0)
        out = PyTuple_Pack(2, bounds, values);
done:
    Py_XDECREF(bounds);
    Py_XDECREF(values);
    PyBuffer_Release(&view);
    return out;
}

/* The key count of a bounds buffer of native-endian int64 (start, end)
   pairs; ValueError and -1 unless it holds whole pairs. */
static Py_ssize_t key_count(const Py_buffer *bounds)
{
    if (bounds->len % 16 == 0)
        return bounds->len / 16;
    PyErr_SetString(PyExc_ValueError, "bounds must hold two int64 per key");
    return -1;
}

/* The (start, end) of key i of bounds in se, checked to lie within data;
   ValueError and -1 otherwise. */
static int key_span(const Py_buffer *bounds, Py_ssize_t i, const Py_buffer *data, int64_t se[2])
{
    memcpy(se, (const uint8_t *)bounds->buf + 16 * i, 16);
    if (se[0] >= 0 && se[0] <= se[1] && se[1] <= data->len)
        return 0;
    PyErr_Format(PyExc_ValueError, "key %zd lies outside the data", i);
    return -1;
}

/* A little-endian u32 from 4 bytes. */
static uint32_t load32(const uint8_t *p)
{
    uint32_t x;
    memcpy(&x, p, 4);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    x = __builtin_bswap32(x);
#endif
    return x;
}

/* scan_records(data, value_bytes) -> (bounds, values) or None: the
   length-prefixed records of the bytes data, each a little-endian u32 key
   length, the key, then a value_bytes-byte little-endian value
   (value_bytes is 0 or 8; every value is 0 when it is 0). bounds and
   values are as read_tsv gives them. None when a record is truncated:
   cli._binary_records then reads the data in Python, which names it. */
static PyObject *py_scan_records(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("scan_records", nargs, 2) < 0)
        return NULL;
    long vb = PyLong_AsLong(args[1]);
    if (vb == -1 && PyErr_Occurred())
        return NULL;
    if (vb != 0 && vb != 8) {
        PyErr_SetString(PyExc_ValueError, "scan_records takes value_bytes 0 or 8");
        return NULL;
    }
    Py_buffer view;
    if (PyObject_GetBuffer(args[0], &view, PyBUF_SIMPLE) < 0)
        return NULL;
    const uint8_t *base = view.buf;
    size_t len = (size_t)view.len, pos = 0;
    Py_ssize_t m = 0;
    /* one pass to count and check the records, then one to keep them */
    for (; pos < len; m++) {
        size_t size = len - pos < 4 ? SIZE_MAX : 4 + (size_t)load32(base + pos) + (size_t)vb;
        if (size > len - pos) {
            PyBuffer_Release(&view);
            Py_RETURN_NONE;
        }
        pos += size;
    }
    PyObject *bounds = PyByteArray_FromStringAndSize(NULL, 16 * m);
    PyObject *values = PyByteArray_FromStringAndSize(NULL, 8 * m);
    PyObject *out = NULL;
    if (bounds && values) {
        char *bp = PyByteArray_AS_STRING(bounds), *vp = PyByteArray_AS_STRING(values);
        pos = 0;
        for (Py_ssize_t i = 0; i < m; i++) {
            int64_t se[2] = {(int64_t)pos + 4, (int64_t)pos + 4 + load32(base + pos)};
            uint64_t v = vb ? load64(base + se[1]) : 0;
            memcpy(bp + 16 * i, se, 16);
            memcpy(vp + 8 * i, &v, 8);
            pos = (size_t)se[1] + (size_t)vb;
        }
        out = PyTuple_Pack(2, bounds, values);
    }
    Py_XDECREF(bounds);
    Py_XDECREF(values);
    PyBuffer_Release(&view);
    return out;
}

/* digest_packed(data, bounds, seed) -> digests: the digest of each key
   data[start:end], for the native-endian int64 (start, end) pairs of the
   buffer bounds, as a bytearray of 16 bytes per key (lo, then hi,
   little-endian), as digest_pairs gives them. ValueError for a pair that
   does not lie within data. */
static PyObject *py_digest_packed(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t seed;
    Py_buffer data, bounds = {.obj = NULL};
    if (check_nargs("digest_packed", nargs, 3) < 0 || seed_arg(args[2], &seed) < 0
        || PyObject_GetBuffer(args[0], &data, PyBUF_SIMPLE) < 0)
        return NULL;
    PyObject *out = NULL;
    Py_ssize_t m;
    if (PyObject_GetBuffer(args[1], &bounds, PyBUF_SIMPLE) < 0 || (m = key_count(&bounds)) < 0
        || !(out = PyByteArray_FromStringAndSize(NULL, 16 * m)))
        goto done;
    uint8_t *d = (uint8_t *)PyByteArray_AS_STRING(out);
    for (Py_ssize_t i = 0; i < m; i++, d += 16) {
        int64_t se[2];
        uint64_t hi, lo;
        if (key_span(&bounds, i, &data, se) < 0) {
            Py_CLEAR(out);
            break;
        }
        digest(seed, (const uint8_t *)data.buf + se[0], (size_t)(se[1] - se[0]), &hi, &lo);
        store64(d, lo);
        store64(d + 8, hi);
    }
done:
    PyBuffer_Release(&bounds);
    PyBuffer_Release(&data);
    return out;
}

/* Keys a block query hashes before it looks any of them up, so that the
   reads of one batch's lookups overlap. */
#define QUERY_BATCH 16

/* lookup.query_block(data, bounds) -> answers: the value of each key of
   the buffer data, as a call of the lookup gives it, in a bytearray of
   one native-endian uint64 per key. With bounds None the keys are the
   lines of data, the keys of cli._key_blocks: data is split at \n, a
   last line without one counts (so empty data has no key), and each line
   loses its trailing run of \r. Otherwise bounds holds native-endian
   int64 (start, end) pairs, as digest_packed takes them, and key i is
   data[start:end]; ValueError, before any lookup, for a pair that does
   not lie within data. Each key is hashed where it lies; the first key
   whose lookup fails raises the call's error. */
static PyObject *lookup_query_block(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("query_block", nargs, 2) < 0)
        return NULL;
    const struct query *q = &((Lookup *)self)->q;
    Py_buffer data = {.obj = NULL}, bounds = {.obj = NULL};
    PyObject *out = NULL;
    int lines = args[1] == Py_None;
    Py_ssize_t m = 0;
    int64_t se[2];
    if (PyObject_GetBuffer(args[0], &data, PyBUF_SIMPLE) < 0
        || (!lines && (PyObject_GetBuffer(args[1], &bounds, PyBUF_SIMPLE) < 0
                       || (m = key_count(&bounds)) < 0)))
        goto done;
    const uint8_t *p = data.buf, *end = p + data.len;
    if (lines) {
        for (const uint8_t *nl = p; (nl = memchr(nl, '\n', (size_t)(end - nl))); nl++)
            m++;
        m += data.len && end[-1] != '\n';
    }
    for (Py_ssize_t i = 0; !lines && i < m; i++)
        if (key_span(&bounds, i, &data, se) < 0)
            goto done;
    if (!(out = PyByteArray_FromStringAndSize(NULL, 8 * m)))
        goto done;
    uint8_t *v = (uint8_t *)PyByteArray_AS_STRING(out);
    for (Py_ssize_t i = 0; i < m; i += QUERY_BATCH) {
        uint64_t hi[QUERY_BATCH], lo[QUERY_BATCH], value;
        int k = m - i < QUERY_BATCH ? (int)(m - i) : QUERY_BATCH;
        for (int j = 0; j < k; j++) {
            const uint8_t *key = p, *stop;
            if (lines) {
                const uint8_t *nl = memchr(p, '\n', (size_t)(end - p));
                stop = nl ? nl : end;
                p = nl ? nl + 1 : end;
                while (stop > key && stop[-1] == '\r')
                    stop--;
            } else {
                memcpy(se, (const uint8_t *)bounds.buf + 16 * (i + j), 16);
                key += se[0];
                stop = key + (se[1] - se[0]);
            }
            digest(q->seed, key, (size_t)(stop - key), &hi[j], &lo[j]);
        }
        for (int j = 0; j < k; j++, v += 8) {
            if (query_digest(q, q->L, hi[j], lo[j], &value) < 0) {
                Py_CLEAR(out);
                goto done;
            }
            memcpy(v, &value, 8);
        }
    }
done:
    PyBuffer_Release(&bounds);
    PyBuffer_Release(&data);
    return out;
}

static PyMethodDef lookup_methods[] = {
    {"query_many", lookup_query_many, METH_O, "query_many(keys): the values of many keys."},
    {"query_block", (PyCFunction)(void (*)(void))lookup_query_block, METH_FASTCALL,
     "query_block(data, bounds): the values of the keys of data, as uint64."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject LookupType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "bandset._band.Lookup",
    .tp_doc = "One structure's lookup, made by bind: lookup(key) is the value of one key.",
    .tp_basicsize = sizeof(Lookup),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_dealloc = lookup_dealloc,
    .tp_vectorcall_offset = offsetof(Lookup, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_methods = lookup_methods,
};

/* bind(seed, L, r, lead, directory, planes) -> Lookup: query_init's
   checks, once; nothing is made when they fail. */
static PyObject *py_bind(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("bind", nargs, 6) < 0)
        return NULL;
    Lookup *lookup = PyObject_New(Lookup, &LookupType);
    if (!lookup)
        return NULL;
    lookup->vectorcall = lookup_call;
    if (query_init(&lookup->q, args) < 0) {
        Py_DECREF(lookup); /* query_init left both views empty */
        return NULL;
    }
    return (PyObject *)lookup;
}

static PyMethodDef methods[] = {
    {"solve", py_solve, METH_VARARGS, "Solve one band system into r runs of packed plane words."},
    {"digest_pairs", (PyCFunction)(void (*)(void))py_digest_pairs, METH_FASTCALL,
     "Check (key, value) pairs, hash each key and keep each value."},
    {"order_rows", (PyCFunction)(void (*)(void))py_order_rows, METH_FASTCALL,
     "order_rows(digests, values, num_chunks): the rows in chunk order, each chunk by start "
     "word, or None."},
    {"bind", (PyCFunction)(void (*)(void))py_bind, METH_FASTCALL,
     "bind(seed, L, r, lead, directory, planes): one structure's lookup."},
    {"read_tsv", (PyCFunction)(void (*)(void))py_read_tsv, METH_FASTCALL,
     "read_tsv(data, r): the key bounds and values of plain key<TAB>HEX lines, or None."},
    {"digest_packed", (PyCFunction)(void (*)(void))py_digest_packed, METH_FASTCALL,
     "digest_packed(data, bounds, seed): the digest of each key data[start:end]."},
    {"scan_records", (PyCFunction)(void (*)(void))py_scan_records, METH_FASTCALL,
     "scan_records(data, value_bytes): the key bounds and values of length-prefixed records, "
     "or None."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "bandset._band", NULL, -1, methods};

PyMODINIT_FUNC PyInit__band(void)
{
    if (PyType_Ready(&LookupType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&module);
    if (m && PyModule_AddObjectRef(m, "Lookup", (PyObject *)&LookupType) < 0)
        Py_CLEAR(m);
    return m;
}
