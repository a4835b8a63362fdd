/* The columnar oracle kernel's event (its only implementation).
 *
 * One call per merged (user, slide) event over a column range:
 * singleton-cache update, m refresh (with the full instance-range
 * rebuild when a bound moves), best-so-far offer, admission gate, and
 * the per-(column, slot) admission pass over coverage bitsets -- the
 * object plane's _dispatch walk, for every fed checkpoint at once.
 *
 * Float semantics must match CPython bit-for-bit -- this is an exact
 * replica of the object plane, not an approximation:
 *   - link against the same libm the interpreter uses (log/pow/ceil);
 *   - compile WITHOUT -ffast-math and WITH -ffp-contract=off so no FMA
 *     contraction changes rounding versus the Python expressions;
 *   - every formula below is transcribed operation-for-operation from
 *     the oracles (sieve bar, threshold bar, guess-chain walk).
 *
 * All state lives in numpy arrays owned by the Python kernel; this file
 * only ever writes through the pointers in EventCtx.  Python re-fills
 * the context whenever an array is reallocated (growth/compaction).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    /* dims / scalars */
    int64_t cap;      /* column capacity (row stride of mem2d/cache2d) */
    int64_t jcap;     /* instance-plane slot capacity */
    int64_t kcap;     /* seed-list capacity (= k) */
    int64_t wcap;     /* coverage word capacity (stride of icov rows) */
    int64_t k;
    int64_t bar_mode; /* 1 = sieve (bar tracks value), 0 = threshold */
    double uniform;
    double base;      /* 1 + beta */
    double log_base;  /* log1p(beta), computed by Python */
    /* per-column scalars */
    double *m;
    double *best;
    double *floor_;
    double *rthresh;
    int64_t *blow;
    int64_t *bhigh;
    int64_t *starts;
    /* instance plane (cap, jcap) */
    double *ival;
    double *ibar;
    double *iguess;
    int16_t *inseed;
    int64_t *iseed_ids; /* (cap, jcap, kcap) */
    int64_t *best_ids;  /* (cap, kcap) */
    int64_t *best_ns;   /* (cap) */
    uint8_t *dirtyf;    /* (cap) */
    uint64_t *icov;     /* (cap, jcap, wcap) */
    uint64_t *mem2d;    /* (urows, cap) */
    double *cache2d;    /* (urows, cap) */
    /* scratch (sized by Python, see _ensure_scratch) */
    int64_t *lanes;   /* influence-pair lanes, slide order */
    int64_t *times;   /* influence-pair latest times, slide order */
    int64_t *skeys;   /* (time, idx) pairs for the stable sort */
    uint64_t *cum;    /* (pairs + 1, w) suffix cumulative-OR table */
    int64_t *counts;  /* (cap) multi-pair gain counts */
    int64_t *los;     /* this slide's pair feed boundaries */
    uint64_t *freshb; /* (wcap) per-entry fresh-member words */
} EventCtx;

/* Empty-instance admission bar, matching the oracle formulas exactly:
 * sieve: (guess / 2.0 - value) / (k - len(seeds)) with value=0, seeds={}
 * threshold: guess / (2.0 * k)
 */
static double empty_bar(const EventCtx *c, double guess) {
    if (c->bar_mode)
        return (guess / 2.0 - 0.0) / (double)(c->k);
    return guess / (2.0 * (double)c->k);
}

/* Align column col's instances with {j : m <= (1+beta)^j <= 2km}.
 * The bounds only grow (m is monotone), so the rebuild is a left shift of
 * the slot axis by low' - low -- tearing down the now-too-small exponents
 * and their seeds' membership bits, which are keyed by exponent mod 64 so
 * survivors keep theirs untouched -- plus fresh empty instances on the
 * high side.  rthresh is re-armed to the next m that can move a bound,
 * backed off a hair so float error never lets such a growth slip by.
 */
static int refresh_col(EventCtx *c, int64_t col) {
    double m = c->m[col];
    if (m <= 0.0)
        return 0;
    double lb = c->log_base;
    int64_t low = (int64_t)ceil(log(m) / lb - 1e-9);
    int64_t high = (int64_t)floor(log((double)(2 * c->k) * m) / lb + 1e-9);
    int64_t old_low = c->blow[col];
    int64_t old_high = c->bhigh[col];
    double t1 = pow(c->base, (double)low + 1e-9);
    double t2 = pow(c->base, (double)(high + 1) - 1e-9) / (2.0 * (double)c->k);
    c->rthresh[col] = (t1 < t2 ? t1 : t2) * (1.0 - 1e-9);
    if (low == old_low && high == old_high)
        return 0;
    int64_t width = high - low + 1;
    if (width > c->jcap)
        return 1; /* guess ladder outgrew the slot budget */
    int64_t old_width = old_high >= old_low ? old_high - old_low + 1 : 0;
    c->blow[col] = low;
    c->bhigh[col] = high;
    int64_t jc = c->jcap, kc = c->kcap, wc = c->wcap;
    double *ival = c->ival + col * jc;
    double *ibar = c->ibar + col * jc;
    double *iguess = c->iguess + col * jc;
    int16_t *inseed = c->inseed + col * jc;
    int64_t *ids = c->iseed_ids + col * jc * kc;
    uint64_t *icov = c->icov + col * jc * wc;
    int64_t shift = old_width ? low - old_low : 0;
    if (shift > 0) {
        int64_t tear = shift < old_width ? shift : old_width;
        for (int64_t s = 0; s < tear; s++) {
            int64_t cnt = inseed[s];
            if (cnt) {
                uint64_t clear = ~(1ULL << (uint64_t)((old_low + s) & 63));
                for (int64_t q = 0; q < cnt; q++)
                    c->mem2d[ids[s * kc + q] * c->cap + col] &= clear;
            }
        }
        int64_t survivors = old_width - shift;
        if (survivors > 0) {
            memmove(ival, ival + shift, (size_t)survivors * sizeof(double));
            memmove(ibar, ibar + shift, (size_t)survivors * sizeof(double));
            memmove(iguess, iguess + shift,
                    (size_t)survivors * sizeof(double));
            memmove(inseed, inseed + shift,
                    (size_t)survivors * sizeof(int16_t));
            memmove(icov, icov + shift * wc,
                    (size_t)(survivors * wc) * sizeof(uint64_t));
            memmove(ids, ids + shift * kc,
                    (size_t)(survivors * kc) * sizeof(int64_t));
        }
    }
    int64_t survivors = old_width - shift;
    if (survivors < 0)
        survivors = 0;
    if (old_width > width) {
        for (int64_t s = width; s < old_width; s++) {
            ival[s] = 0.0;
            ibar[s] = INFINITY;
            iguess[s] = 0.0;
            inseed[s] = 0;
            memset(icov + s * wc, 0, (size_t)wc * sizeof(uint64_t));
        }
    }
    if (width > survivors) {
        /* Walk the object plane's exact guess chain from base**low. */
        double guess = pow(c->base, (double)low);
        for (int64_t s = 0; s < width; s++) {
            if (s >= survivors) {
                iguess[s] = guess;
                ival[s] = 0.0;
                inseed[s] = 0;
                memset(icov + s * wc, 0, (size_t)wc * sizeof(uint64_t));
                ibar[s] = empty_bar(c, guess);
            }
            guess *= c->base;
        }
    }
    double fl = INFINITY;
    for (int64_t s = 0; s < jc; s++)
        if (ibar[s] < fl)
            fl = ibar[s];
    c->floor_[col] = fl;
    c->dirtyf[col] = 0;
    return 0;
}

/* Stable sort by (time, original index) == numpy argsort(kind="stable"). */
static int cmp_pair(const void *x, const void *y) {
    const int64_t *p = (const int64_t *)x;
    const int64_t *q = (const int64_t *)y;
    if (p[0] != q[0])
        return p[0] < q[0] ? -1 : 1;
    return p[1] < q[1] ? -1 : (p[1] > q[1] ? 1 : 0);
}

/* Time-sorted cumulative-OR table of the user's influence pairs:
 * cum[i] = OR of lane bits of pairs with sort position >= i, so cum at
 * lower_bound(times, start) is the user's suffix influence set at start.
 */
static void build_suffix(EventCtx *c, int64_t count, int64_t w) {
    int64_t *sk = c->skeys;
    for (int64_t i = 0; i < count; i++) {
        sk[2 * i] = c->times[i];
        sk[2 * i + 1] = i;
    }
    qsort(sk, (size_t)count, 2 * sizeof(int64_t), cmp_pair);
    uint64_t *cum = c->cum;
    memset(cum + count * w, 0, (size_t)w * sizeof(uint64_t));
    for (int64_t i = count - 1; i >= 0; i--) {
        uint64_t *dst = cum + i * w;
        const uint64_t *nxt = cum + (i + 1) * w;
        for (int64_t j = 0; j < w; j++)
            dst[j] = nxt[j];
        int64_t ln = c->lanes[sk[2 * i + 1]];
        dst[ln >> 6] |= 1ULL << (uint64_t)(ln & 63);
    }
}

/* The admission pass for one gated column, slot-ascending -- the order
 * the object plane walks instances and folds strict-> best offers in.
 * A slot is tested when the singleton clears its bar (filled and absent
 * slots carry bar = +inf) or the user already seeds it.  The members
 * gained are suffix & ~covered; for a member slot the same expression is
 * the refresh growth, since a seed's covered set contains their older
 * suffix.  Admission needs gain >= bar and gain > 0, the gain computed by
 * the identical uniform * count multiply.
 */
static void admit_col(EventCtx *c, int64_t col, int64_t urow, double sv,
                      uint64_t mbits, int64_t count, int64_t w,
                      uint64_t *mrow) {
    int64_t low = c->blow[col];
    int64_t width = c->bhigh[col] - low + 1;
    if (width <= 0)
        return;
    int64_t start = c->starts[col];
    const int64_t *sk = c->skeys;
    int64_t loi = 0, hii = count;
    while (loi < hii) {
        int64_t mid = (loi + hii) >> 1;
        if (sk[2 * mid] < start)
            loi = mid + 1;
        else
            hii = mid;
    }
    const uint64_t *suffix = c->cum + loi * w;
    int64_t jc = c->jcap, kc = c->kcap, wc = c->wcap, k = c->k;
    double *ival = c->ival + col * jc;
    double *ibar = c->ibar + col * jc;
    double *iguess = c->iguess + col * jc;
    int16_t *inseed = c->inseed + col * jc;
    int64_t *ids = c->iseed_ids + col * jc * kc;
    uint64_t *icov = c->icov + col * jc * wc;
    uint64_t *freshb = c->freshb;
    for (int64_t s = 0; s < width; s++) {
        int is_mem = (int)((mbits >> (uint64_t)((low + s) & 63)) & 1ULL);
        int is_cand = sv >= ibar[s];
        if (!is_mem && !is_cand)
            continue;
        uint64_t *cov = icov + s * wc;
        int64_t cnt = 0;
        for (int64_t j = 0; j < w; j++) {
            uint64_t f = suffix[j] & ~cov[j];
            freshb[j] = f;
            cnt += (int64_t)__builtin_popcountll(f);
        }
        double gain = (double)cnt * c->uniform;
        int admit = !is_mem && gain >= ibar[s] && gain > 0.0;
        int apply = admit || (is_mem && cnt > 0);
        if (!apply)
            continue;
        ival[s] += gain;
        for (int64_t j = 0; j < w; j++)
            cov[j] |= freshb[j];
        if (admit) {
            ids[s * kc + inseed[s]] = urow;
            mrow[col] |= 1ULL << (uint64_t)((low + s) & 63);
            inseed[s] = (int16_t)(inseed[s] + 1);
        }
        int64_t ns = inseed[s];
        if (c->bar_mode) {
            /* Sieve: every applied entry recomputes its bar. */
            double nb;
            if (ns >= k)
                nb = INFINITY;
            else
                nb = (iguess[s] / 2.0 - ival[s]) / (double)(k - ns);
            ibar[s] = nb;
            if (nb < c->floor_[col])
                c->floor_[col] = nb;
            if (admit)
                c->dirtyf[col] = 1;
        } else if (admit && ns >= k) {
            /* Threshold: static bars, only fills go to +inf. */
            ibar[s] = INFINITY;
            c->dirtyf[col] = 1;
        }
        double v = ival[s];
        if (v > c->best[col]) {
            c->best[col] = v;
            for (int64_t q = 0; q < ns; q++)
                c->best_ids[col * kc + q] = ids[s * kc + q];
            c->best_ns[col] = ns;
        }
    }
}

/* One merged (user, slide) event over columns [a, b).
 * urow: the user's interned row; nlos: this slide's pair count (los
 * holds the feed boundaries when > 1); pcount: the user's total
 * influence-pair count in lanes/times; w: live coverage words.
 * Returns non-zero on invariant breach (ladder overflow).
 */
int process_event(EventCtx *c, int64_t urow, int64_t a, int64_t b,
                  int64_t nlos, int64_t pcount, int64_t w) {
    double *cache = c->cache2d + urow * c->cap;
    double uniform = c->uniform;
    if (nlos == 1) {
        for (int64_t col = a; col < b; col++)
            cache[col] += uniform;
    } else {
        int64_t *counts = c->counts;
        for (int64_t col = a; col < b; col++)
            counts[col] = 0;
        for (int64_t i = 0; i < nlos; i++) {
            int64_t lo = c->los[i];
            if (lo < b)
                counts[lo > a ? lo : a] += 1;
        }
        int64_t run = 0;
        for (int64_t col = a; col < b; col++) {
            run += counts[col];
            cache[col] += (double)run * uniform;
        }
    }
    for (int64_t col = a; col < b; col++) {
        double sv = cache[col];
        if (sv > c->m[col]) {
            c->m[col] = sv;
            if (sv >= c->rthresh[col]) {
                int st = refresh_col(c, col);
                if (st)
                    return st;
            }
        }
    }
    for (int64_t col = a; col < b; col++) {
        double sv = cache[col];
        if (sv > c->best[col]) {
            c->best[col] = sv;
            c->best_ns[col] = 1;
            c->best_ids[col * c->kcap] = urow;
        }
    }
    uint64_t *mrow = c->mem2d + urow * c->cap;
    int built = 0;
    for (int64_t col = a; col < b; col++) {
        uint64_t mbits = mrow[col];
        double sv = cache[col];
        if (!(sv >= c->floor_[col]) && mbits == 0)
            continue;
        if (!built) {
            if (pcount == 0)
                break; /* no influence pairs -> no masks -> no-op */
            build_suffix(c, pcount, w);
            built = 1;
        }
        admit_col(c, col, urow, sv, mbits, pcount, w, mrow);
    }
    return 0;
}
