/* Native backend of bandset.retrieval_flat.solve: pivot insertion (the
   Ribbon construction of Dillinger & Walzer, 2021) and per-plane
   back-substitution of one band system over GF(2), for L <= 128 and at
   most 64 value bits. It walks and adds rows exactly as the Python branch
   of ``solve`` does, so both write the same bytes; ``solve`` checks the
   inputs before it calls this.

   A walking or stored row never spans more than L bits from its current
   column: each of its source rows starts at or before that column, since
   walks only move right. So one unsigned __int128 holds any row, in any
   row order, with bit 0 at the row's current column. */

#include <stdint.h>
#include <stdlib.h>

typedef unsigned __int128 u128;

static unsigned ctz128(u128 x) /* x != 0 */
{
    uint64_t lo = (uint64_t)x;
    return lo ? (unsigned)__builtin_ctzll(lo) : 64u + (unsigned)__builtin_ctzll((uint64_t)(x >> 64));
}

static int parity128(u128 x)
{
    return __builtin_parityll((uint64_t)x ^ (uint64_t)(x >> 64));
}

/* Rows are starts[i] in [1, n] with the pattern plo[i] | phi[i] << 64 (phi
   is NULL for L <= 64) and right-hand side rhs[i]. Column s of plane t is
   planes[t][offset + s - 1]; only 1 bits are written. Returns 1 when
   solved, 0 when the rows are dependent (nothing written), -1 when out of
   memory (nothing written). */
int band_solve(int64_t n, int64_t L, int64_t m, const uint64_t *starts,
               const uint64_t *plo, const uint64_t *phi, const uint64_t *rhs,
               int64_t r, uint8_t **planes, int64_t offset)
{
    int64_t width = n + L - 1;
    u128 *rows = calloc((size_t)width + 1, sizeof *rows); /* by pivot column */
    uint64_t *bs = calloc((size_t)width + 1, sizeof *bs);
    int solved = rows && bs ? 1 : -1;

    for (int64_t i = 0; i < m && solved == 1; i++) {
        int64_t s = (int64_t)starts[i];
        u128 c = phi ? (u128)phi[i] << 64 | plo[i] : plo[i];
        uint64_t b = rhs[i];
        for (;;) {
            if (!c) {
                solved = 0;
                break;
            }
            unsigned t = ctz128(c); /* < 128, so the shift is defined */
            s += t;
            c >>= t;
            if (!rows[s]) {
                rows[s] = c;
                bs[s] = b;
                break;
            }
            c ^= rows[s];
            b ^= bs[s];
        }
    }
    /* The window slides one column per step, so no shift reaches 128 bits;
       bits above L never meet a stored row, so they need no mask. */
    for (int64_t t = 0; t < r && solved == 1; t++) {
        uint8_t *z = planes[t] + offset;
        u128 window = 0; /* bit j is column s + j */
        for (int64_t s = width; s >= 1; s--) {
            window <<= 1;
            if (rows[s] && (parity128(window & rows[s]) ^ (int)(bs[s] >> t & 1))) {
                window |= 1;
                z[s - 1] = 1;
            }
        }
    }
    free(rows);
    free(bs);
    return solved;
}
