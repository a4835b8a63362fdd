/* The columnar oracle kernel's compiled half: the slide, the column
 * lifecycle and the pair store, which on this plane is the engine's only
 * copy of its influence pairs.
 *
 * process_slide takes one slide's records as flat columns (performer,
 * time, fanout, influencers) and runs everything between the records and
 * the answers: it interns the influencers as user rows and the performers
 * as coverage lanes, credits each pair in the pair store (below), reading
 * the pair's previous credit off the row it scans, then the lower bound
 * over the column starts, per-user grouping with the prefix-min chain of
 * feed boundaries, one event per (user, column range) in slide position
 * order, and the dirty-floor re-tightening.  An event is the object
 * plane's _dispatch walk for every fed checkpoint at once: singleton-cache
 * update, m refresh (with the full instance-range rebuild when a bound
 * moves), best-so-far offer, admission gate, and the per-(column, slot)
 * admission pass over the user's suffix pairs and the coverage bitsets.
 * retire_column and compact own what happens to a column afterwards;
 * suffix reads a user's pairs, export_state writes the store and the
 * per-user column entries out for a snapshot, and intern names the rows
 * and lanes a restore brings back.
 *
 * Float semantics must match CPython bit-for-bit -- this is an exact
 * replica of the object plane, not an approximation:
 *   - link against the same libm the interpreter uses (log/pow/ceil);
 *   - compile WITHOUT -ffast-math and WITH -ffp-contract=off so no FMA
 *     contraction changes rounding versus the Python expressions;
 *   - every formula below is transcribed operation-for-operation from
 *     the oracles (sieve bar, threshold bar, guess-chain walk).
 *
 * All column and user-row state lives in numpy arrays owned by the Python
 * kernel; this file writes it only through the pointers in EventCtx, and
 * Python re-fills the context whenever an array is reallocated (growth).
 * The exception is the store, which this file allocates (store_new), grows
 * and frees (store_free, from the Python kernel's finalizer): two intern
 * maps (user id -> row, influenced user id -> lane; Python's row_user and
 * lane_user tables name them back) and, per row, the user's influence
 * pairs as one (time, lane) array with four invariants:
 *   - times ascend along the row;
 *   - each lane appears at most once;
 *   - the latest credit wins: a put no newer than the lane's stored time
 *     changes nothing;
 *   - pairs credited before starts[head] are invisible to every live
 *     column, and are trimmed when a row must grow and by compact.
 * From starts[head] on, a row holds exactly its user's influence pairs,
 * each at its latest credit time (the record's time).
 *
 * Two column invariants hold between calls and are what the lifecycle
 * entries rely on:
 *   - mem2d[row, col] has bit (j & 63) set iff row is listed among the
 *     first inseed[col, s] entries of iseed_ids[col, s], s = j - blow[col]
 *     (admit_col sets both, refresh_col's tear-down clears both), so a
 *     column's membership is cleared by walking its own seed lists;
 *   - every unused physical column (>= n) is in the open state -- zero
 *     scalars, floor/bars +inf, empty ladder, zero coverage, membership
 *     and caches -- so opening a column writes nothing but its start.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Status codes of process_slide and intern (0 = done).  NEED_ROOM: the
 * slide interned more rows or lanes than mem2d/cache2d or icov hold;
 * nothing else changed, and the same call succeeds once they grow. */
enum { LADDER_OVERFLOW = 1, OUT_OF_MEMORY = 2, NEED_ROOM = 3 };

typedef struct {
    int64_t time; /* latest credit time */
    int64_t lane; /* the influenced user's coverage bit */
} Pair;

typedef struct {
    Pair *pairs; /* time-ascending, one entry per lane */
    int64_t len;
    int64_t cap;
    int64_t slot; /* 1 + the row's user slot while a slide interns, else 0 */
} Row;

/* Open addressing from a user id to its dense index; vals hold index + 1
 * (0 = free slot), and the load stays at most one half. */
typedef struct {
    int64_t *keys;
    int64_t *vals;
    int64_t mask; /* slots - 1 */
    int64_t count;
} Map;

typedef struct {
    Row *rows; /* indexed by interned user row */
    int64_t nrows;
    Map users;      /* user id -> row */
    Map lanes;      /* influenced user id -> lane */
    int64_t pairs;  /* pairs held */
    int64_t filled; /* rows holding a pair */
} Store;

typedef struct {
    /* dims / scalars */
    int64_t cap;      /* column capacity (row stride of mem2d/cache2d) */
    int64_t jcap;     /* instance-plane slot capacity */
    int64_t kcap;     /* seed-list capacity (= k) */
    int64_t wcap;     /* coverage word capacity (stride of icov rows) */
    int64_t k;
    int64_t bar_mode; /* 1 = sieve (bar tracks value), 0 = threshold */
    int64_t urows;    /* row capacity of mem2d/cache2d */
    int64_t ucap;     /* capacity of row_user */
    int64_t lcap;     /* capacity of lane_user */
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
    /* the interned names, written here on first sight */
    int64_t *row_user;  /* (ucap) user id of each row */
    int64_t *lane_user; /* (lcap) user id of each lane */
    int64_t *tally;     /* (4) rows, lanes, pairs held, rows holding one */
    /* the slide, filled by Python: R records, P pairs */
    int64_t *rec_user; /* (R) performer, the influenced user */
    int64_t *rec_time; /* (R) the credit stamp of the record's pairs */
    int64_t *rec_fan;  /* (R) number of influencers */
    int64_t *rec_infl; /* (P) the influencers, record after record */
    Store *store;      /* the pair store, owned by this file */
    /* scratch (sized by Python, see _context) */
    int64_t *work;   /* (7P + R + 1) per-pair, per-user and per-record */
    int64_t *counts; /* (cap) multi-pair gain counts; compaction runs */
} EventCtx;

Store *store_new(void) { return calloc(1, sizeof(Store)); }

void store_free(Store *st) {
    for (int64_t r = 0; r < st->nrows; r++)
        free(st->rows[r].pairs);
    free(st->rows);
    free(st->users.keys);
    free(st->users.vals);
    free(st->lanes.keys);
    free(st->lanes.vals);
    free(st);
}

static int64_t map_home(const Map *m, int64_t id) {
    uint64_t h = (uint64_t)id * 0x9E3779B97F4A7C15ULL;
    return (int64_t)((h ^ (h >> 32)) & (uint64_t)m->mask);
}

/* The dense index of id, or -1 when it has none. */
static int64_t map_find(const Map *m, int64_t id) {
    if (!m->vals)
        return -1;
    for (int64_t i = map_home(m, id);; i = (i + 1) & m->mask) {
        if (!m->vals[i])
            return -1;
        if (m->keys[i] == id)
            return m->vals[i] - 1;
    }
}

static void map_place(Map *m, int64_t id, int64_t index) {
    int64_t i = map_home(m, id);
    while (m->vals[i])
        i = (i + 1) & m->mask;
    m->keys[i] = id;
    m->vals[i] = index + 1;
}

/* The dense index of id, which takes the next one on first sight and is
 * recorded in names (its capacity cap; the table rehashes from it), or -1
 * when names is full or memory is out. */
static int64_t map_intern(Map *m, int64_t id, int64_t *names, int64_t cap) {
    int64_t index = map_find(m, id);
    if (index >= 0)
        return index;
    if (m->count == cap)
        return -1;
    if (2 * (m->count + 1) > m->mask + 1) {
        int64_t slots = m->vals ? 2 * (m->mask + 1) : 64;
        int64_t *keys = malloc((size_t)slots * sizeof(int64_t));
        int64_t *vals = calloc((size_t)slots, sizeof(int64_t));
        if (!keys || !vals) {
            free(keys);
            free(vals);
            return -1;
        }
        free(m->keys);
        free(m->vals);
        m->keys = keys;
        m->vals = vals;
        m->mask = slots - 1;
        for (int64_t j = 0; j < m->count; j++)
            map_place(m, names[j], j);
    }
    names[m->count] = id;
    map_place(m, id, m->count);
    return m->count++;
}

static void publish(EventCtx *c) {
    const Store *st = c->store;
    c->tally[0] = st->users.count;
    c->tally[1] = st->lanes.count;
    c->tally[2] = st->pairs;
    c->tally[3] = st->filled;
}

/* Room for rows [0, need); new rows are empty. */
static int reserve_rows(Store *st, int64_t need) {
    if (need <= st->nrows)
        return 0;
    int64_t nrows = st->nrows ? st->nrows : 64;
    while (nrows < need)
        nrows *= 2;
    Row *rows = realloc(st->rows, (size_t)nrows * sizeof(Row));
    if (!rows)
        return OUT_OF_MEMORY;
    memset(rows + st->nrows, 0, (size_t)(nrows - st->nrows) * sizeof(Row));
    st->rows = rows;
    st->nrows = nrows;
    return 0;
}

/* The position of the row's first pair credited at or after time. */
static int64_t first_at(const Row *r, int64_t time) {
    int64_t lo = 0, hi = r->len;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (r->pairs[mid].time < time)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Drop the row's pairs credited before oldest (a prefix). */
static void trim_row(Store *st, Row *r, int64_t oldest) {
    int64_t gone = first_at(r, oldest);
    if (gone) {
        r->len -= gone;
        st->pairs -= gone;
        st->filled -= r->len == 0;
        memmove(r->pairs, r->pairs + gone, (size_t)r->len * sizeof(Pair));
    }
}

/* Credit lane at time in row r, keeping the store's invariants, and set
 * *prev to the lane's credit before this one: 0 when the row holds none,
 * never credited or trimmed, which feeds every live column just as the
 * trimmed time would.  oldest is the oldest live column's start (pairs
 * before it may go).  Times mostly arrive ascending, so the insertion is
 * usually an append. */
static int put_pair(Store *st, Row *r, int64_t lane, int64_t time,
                    int64_t oldest, int64_t *prev) {
    Pair *p = r->pairs;
    int64_t len = r->len, i = len - 1;
    while (i >= 0 && p[i].lane != lane)
        i--;
    *prev = i >= 0 ? p[i].time : 0;
    if (i >= 0) {
        if (time <= p[i].time)
            return 0;
        memmove(p + i, p + i + 1, (size_t)(len - 1 - i) * sizeof(Pair));
        len--;
    } else {
        if (len == r->cap) {
            trim_row(st, r, oldest);
            len = r->len;
            if (len == r->cap) {
                int64_t cap = r->cap ? 2 * r->cap : 4;
                p = realloc(p, (size_t)cap * sizeof(Pair));
                if (!p)
                    return OUT_OF_MEMORY;
                r->pairs = p;
                r->cap = cap;
            }
        }
        st->pairs++;
        st->filled += len == 0;
    }
    for (i = len; i > 0 && p[i - 1].time > time; i--)
        p[i] = p[i - 1];
    p[i].time = time;
    p[i].lane = lane;
    r->len = len + 1;
    return 0;
}

/* Empty-instance admission bar, matching the oracle formulas exactly:
 * sieve: (guess / 2.0 - value) / (k - len(seeds)) with value=0, seeds={}
 * threshold: guess / (2.0 * k)
 */
static double empty_bar(const EventCtx *c, double guess) {
    if (c->bar_mode)
        return (guess / 2.0 - 0.0) / (double)(c->k);
    return guess / (2.0 * (double)c->k);
}

/* A column's tight admission floor: the minimum of its bar row. */
static double tight_floor(const double *ibar, int64_t jc) {
    double fl = INFINITY;
    for (int64_t s = 0; s < jc; s++)
        if (ibar[s] < fl)
            fl = ibar[s];
    return fl;
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
        return LADDER_OVERFLOW; /* guess ladder outgrew the slot budget */
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
    c->floor_[col] = tight_floor(ibar, jc);
    c->dirtyf[col] = 0;
    return 0;
}

/* The admission pass for one gated column, slot-ascending -- the order
 * the object plane walks instances and folds strict-> best offers in.
 * A slot is tested when the singleton clears its bar (filled and absent
 * slots carry bar = +inf) or the user already seeds it.  suffix holds the
 * user's count pairs credited at or after the column's start, so the
 * members gained are its lanes whose covered bit is clear; for a member
 * slot the same count is the refresh growth, since a seed's covered set
 * contains their older suffix.  Admission needs gain >= bar and gain > 0,
 * the gain computed by the identical uniform * count multiply.
 */
static void admit_col(EventCtx *c, int64_t col, int64_t urow, double sv,
                      uint64_t mbits, const Pair *suffix, int64_t count,
                      uint64_t *mrow) {
    int64_t low = c->blow[col];
    int64_t width = c->bhigh[col] - low + 1;
    int64_t jc = c->jcap, kc = c->kcap, wc = c->wcap, k = c->k;
    double *ival = c->ival + col * jc;
    double *ibar = c->ibar + col * jc;
    double *iguess = c->iguess + col * jc;
    int16_t *inseed = c->inseed + col * jc;
    int64_t *ids = c->iseed_ids + col * jc * kc;
    uint64_t *icov = c->icov + col * jc * wc;
    for (int64_t s = 0; s < width; s++) {
        int is_mem = (int)((mbits >> (uint64_t)((low + s) & 63)) & 1ULL);
        int is_cand = sv >= ibar[s];
        if (!is_mem && !is_cand)
            continue;
        uint64_t *cov = icov + s * wc;
        int64_t cnt = 0;
        for (int64_t i = 0; i < count; i++) {
            int64_t ln = suffix[i].lane;
            cnt += (int64_t)((~cov[ln >> 6] >> (uint64_t)(ln & 63)) & 1ULL);
        }
        double gain = (double)cnt * c->uniform;
        int admit = !is_mem && gain >= ibar[s] && gain > 0.0;
        int apply = admit || (is_mem && cnt > 0);
        if (!apply)
            continue;
        ival[s] += gain;
        for (int64_t i = 0; i < count; i++) {
            int64_t ln = suffix[i].lane;
            cov[ln >> 6] |= 1ULL << (uint64_t)(ln & 63);
        }
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
 * urow: the user's interned row, whose store row holds their pairs;
 * los/nlos: the feed boundaries of the user's pairs this slide.
 * Returns non-zero on invariant breach (ladder overflow).
 */
static int process_event(EventCtx *c, int64_t urow, int64_t a, int64_t b,
                         const int64_t *los, int64_t nlos) {
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
            int64_t lo = los[i];
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
    const Row *row = c->store->rows + urow;
    int64_t at = 0; /* the column's first suffix pair: starts ascend with col */
    for (int64_t col = a; col < b; col++) {
        uint64_t mbits = mrow[col];
        double sv = cache[col];
        if (!(sv >= c->floor_[col]) && mbits == 0)
            continue;
        while (at < row->len && row->pairs[at].time < c->starts[col])
            at++;
        if (at == row->len)
            break; /* no pairs from here on -> no gains -> no-op */
        admit_col(c, col, urow, sv, mbits, row->pairs + at, row->len - at,
                  mrow);
    }
    return 0;
}

/* One slide over the n physical columns, of which those below head are
 * dead: nrec records holding npairs (influencer, performer) pairs.  The
 * records' performers are interned as lanes and their influencers as rows
 * first -- returning NEED_ROOM, before anything else changes, when the
 * row or word axis must grow -- and each distinct influencer takes the
 * next user slot.  Every pair then goes to the store in slide order, so
 * its previous credit is the one an earlier pair of this slide left, and
 * every event reads its user's pairs as of the slide's end -- the state
 * the object plane's oracles read too.
 *
 * A pair feeds the columns whose start exceeds its previous credit time
 * -- a suffix [lo, n), lo the upper bound of previous in the ascending
 * starts.  The object plane positions a user in a checkpoint's delta map
 * at the user's first update feeding that checkpoint, so a user whose
 * later pair reaches *older* columns appears at different positions in
 * different maps; the prefix-min chain of the user's boundaries tells
 * which column range belongs to which position.  Walking the pairs in
 * slide order and running one event per chain step -- over [lo, previous
 * minimum), with the user's whole slide of pairs -- therefore reproduces
 * every column's per-user delivery order; a user whose pairs only reach
 * newer columns (the common case) gets the single event [first lo, n).
 * Dirty floors re-tighten to their bar row's minimum at the end.
 * Returns LADDER_OVERFLOW, OUT_OF_MEMORY or NEED_ROOM on failure, else 0.
 * With n = 0 it only fills the store: how a restore loads it.
 */
int process_slide(EventCtx *c, int64_t n, int64_t head, int64_t nrec,
                  int64_t npairs) {
    Store *store = c->store;
    int64_t *user = c->work;          /* (P) each pair's row, then slot */
    int64_t *prev = user + npairs;    /* (P) each pair's previous credit */
    int64_t *lo = prev + npairs;      /* (P) feed boundary per pair */
    int64_t *grouped = lo + npairs;   /* (P) the same, grouped by user */
    int64_t *lane = grouped + npairs; /* (R) each record's performer lane */
    int64_t *usr_row = lane + nrec;   /* (U) interned row per slot */
    int64_t *pos = usr_row + npairs;  /* (U + 1) group offsets */
    int64_t *least = pos + npairs + 1; /* (U) chain minimum so far */
    for (int64_t i = 0, q = 0; i < nrec; i++) {
        int64_t fan = c->rec_fan[i];
        if (fan && (lane[i] = map_intern(&store->lanes, c->rec_user[i],
                                         c->lane_user, c->lcap)) < 0)
            return OUT_OF_MEMORY;
        for (; fan > 0; fan--, q++)
            if ((user[q] = map_intern(&store->users, c->rec_infl[q],
                                      c->row_user, c->ucap)) < 0)
                return OUT_OF_MEMORY;
    }
    publish(c);
    if (reserve_rows(store, store->users.count))
        return OUT_OF_MEMORY;
    if (store->users.count > c->urows || store->lanes.count > 64 * c->wcap)
        return NEED_ROOM;
    int64_t nusers = 0;
    for (int64_t q = 0; q < npairs; q++) {
        Row *r = store->rows + user[q];
        if (!r->slot) {
            usr_row[nusers] = user[q];
            r->slot = ++nusers;
        }
        user[q] = r->slot - 1;
    }
    for (int64_t s = 0; s < nusers; s++)
        store->rows[usr_row[s]].slot = 0;
    int64_t oldest = head < n ? c->starts[head] : INT64_MIN;
    for (int64_t i = 0, q = 0; i < nrec; i++)
        for (int64_t f = 0; f < c->rec_fan[i]; f++, q++)
            if (put_pair(store, store->rows + usr_row[user[q]], lane[i],
                         c->rec_time[i], oldest, prev + q))
                return OUT_OF_MEMORY;
    publish(c);
    const int64_t *starts = c->starts;
    for (int64_t s = 0; s <= nusers; s++)
        pos[s] = 0;
    for (int64_t q = 0; q < npairs; q++) {
        int64_t previous = prev[q], a = head, b = n;
        while (a < b) {
            int64_t mid = (a + b) >> 1;
            if (starts[mid] <= previous)
                a = mid + 1;
            else
                b = mid;
        }
        lo[q] = a;
        pos[user[q] + 1] += 1;
    }
    for (int64_t s = 0; s < nusers; s++) {
        pos[s + 1] += pos[s];
        least[s] = pos[s]; /* the fill cursor, until the replay below */
    }
    for (int64_t q = 0; q < npairs; q++)
        grouped[least[user[q]]++] = lo[q];
    for (int64_t s = 0; s < nusers; s++)
        least[s] = n;
    for (int64_t q = 0; q < npairs; q++) {
        int64_t s = user[q];
        if (lo[q] >= least[s])
            continue;
        int st = process_event(c, usr_row[s], lo[q], least[s],
                               grouped + pos[s], pos[s + 1] - pos[s]);
        if (st)
            return st;
        least[s] = lo[q];
    }
    int64_t jc = c->jcap;
    for (int64_t col = head; col < n; col++) {
        if (!c->dirtyf[col])
            continue;
        /* Retired columns reset their flag, so every flagged column is
         * alive and its floor re-tightens to the row minimum. */
        c->floor_[col] = tight_floor(c->ibar + col * jc, jc);
        c->dirtyf[col] = 0;
    }
    return 0;
}

/* Leave column col in the open state (mark = 0) or masked dead (mark =
 * +inf: singletons are finite, so no event compare can fire on it).
 */
static void reset_column(EventCtx *c, int64_t col, double mark) {
    int64_t jc = c->jcap, wc = c->wcap;
    c->m[col] = c->best[col] = c->rthresh[col] = mark;
    c->floor_[col] = INFINITY;
    c->blow[col] = 0;
    c->bhigh[col] = -1;
    c->best_ns[col] = 0;
    c->dirtyf[col] = 0;
    for (int64_t s = 0; s < jc; s++) {
        c->ival[col * jc + s] = 0.0;
        c->ibar[col * jc + s] = INFINITY;
        c->iguess[col * jc + s] = 0.0;
        c->inseed[col * jc + s] = 0;
    }
    memset(c->icov + col * jc * wc, 0, (size_t)(jc * wc) * sizeof(uint64_t));
}

/* Mask column col dead (expiry or SIC pruning).  Its membership words
 * are found through its own seed lists -- O(jcap * k), not a strided
 * sweep of every user row.  Singleton caches stay behind (nothing reads a
 * dead column's; a strided clear is the cost this avoids) until compact.
 */
void retire_column(EventCtx *c, int64_t col) {
    int64_t jc = c->jcap, kc = c->kcap;
    const int16_t *inseed = c->inseed + col * jc;
    const int64_t *ids = c->iseed_ids + col * jc * kc;
    for (int64_t s = 0; s < jc; s++)
        for (int64_t q = 0; q < inseed[s]; q++)
            c->mem2d[ids[s * kc + q] * c->cap + col] = 0;
    reset_column(c, col, INFINITY);
}

static void move_columns(void *base, size_t stride, int64_t dst, int64_t src,
                         int64_t len) {
    memmove((char *)base + (size_t)dst * stride,
            (char *)base + (size_t)src * stride, (size_t)len * stride);
}

/* Physically drop dead columns: column keep[i] moves to i, for the n_new
 * survivors of old_n columns, and trim the pair store to the new oldest
 * column's start (freeing the rows that empties).  keep ascends, so keep[i] >= i and ascending
 * in-place moves never overwrite an unmoved survivor.  Membership words
 * move through the seed lists, like retirement clears them (a seed listed
 * in two slots finds its word already moved): the target is a dead
 * column's or an earlier move's source, zero either way, and no user row
 * is swept.  Everything else goes run by run (maximal stretches of
 * consecutive survivors) -- IC's dead prefix is one memmove per array,
 * SIC's interior holes a few -- in every per-column array and in the first
 * urows (interned) rows of cache2d.  The vacated columns [n_new, old_n)
 * are left in the open state.
 */
void compact(EventCtx *c, const int64_t *keep, int64_t n_new, int64_t old_n,
             int64_t urows) {
    int64_t jc = c->jcap, kc = c->kcap, wc = c->wcap;
    int64_t *runs = c->counts; /* start index of each run, then n_new */
    int64_t nruns = 0;
    for (int64_t i = 0; i < n_new; i++) {
        int64_t src = keep[i];
        if (i == 0 || src != keep[i - 1] + 1)
            runs[nruns++] = i;
        if (src == i)
            continue;
        const int16_t *inseed = c->inseed + src * jc;
        const int64_t *ids = c->iseed_ids + src * jc * kc;
        for (int64_t s = 0; s < jc; s++)
            for (int64_t q = 0; q < inseed[s]; q++) {
                uint64_t *mem = c->mem2d + ids[s * kc + q] * c->cap;
                if (mem[src]) {
                    mem[i] = mem[src];
                    mem[src] = 0;
                }
            }
    }
    runs[nruns] = n_new;
    for (int64_t r = 0; r < nruns; r++) {
        int64_t dst = runs[r], src = keep[dst], len = runs[r + 1] - dst;
        if (src == dst)
            continue;
        move_columns(c->m, sizeof(double), dst, src, len);
        move_columns(c->best, sizeof(double), dst, src, len);
        move_columns(c->floor_, sizeof(double), dst, src, len);
        move_columns(c->rthresh, sizeof(double), dst, src, len);
        move_columns(c->blow, sizeof(int64_t), dst, src, len);
        move_columns(c->bhigh, sizeof(int64_t), dst, src, len);
        move_columns(c->starts, sizeof(int64_t), dst, src, len);
        move_columns(c->best_ns, sizeof(int64_t), dst, src, len);
        move_columns(c->dirtyf, sizeof(uint8_t), dst, src, len);
        move_columns(c->ival, (size_t)jc * sizeof(double), dst, src, len);
        move_columns(c->ibar, (size_t)jc * sizeof(double), dst, src, len);
        move_columns(c->iguess, (size_t)jc * sizeof(double), dst, src, len);
        move_columns(c->inseed, (size_t)jc * sizeof(int16_t), dst, src, len);
        move_columns(c->iseed_ids, (size_t)(jc * kc) * sizeof(int64_t), dst,
                     src, len);
        move_columns(c->best_ids, (size_t)kc * sizeof(int64_t), dst, src, len);
        move_columns(c->icov, (size_t)(jc * wc) * sizeof(uint64_t), dst, src,
                     len);
    }
    for (int64_t row = 0; row < urows; row++) {
        double *cache = c->cache2d + row * c->cap;
        for (int64_t r = 0; r < nruns; r++) {
            int64_t dst = runs[r], src = keep[dst];
            if (src != dst)
                move_columns(cache, sizeof(double), dst, src,
                             runs[r + 1] - dst);
        }
        memset(cache + n_new, 0, (size_t)(old_n - n_new) * sizeof(double));
    }
    for (int64_t col = n_new; col < old_n; col++)
        reset_column(c, col, 0.0);
    Store *st = c->store;
    for (int64_t r = 0; n_new && r < st->nrows; r++) {
        Row *row = st->rows + r;
        trim_row(st, row, c->starts[0]);
        if (row->len == 0) {
            free(row->pairs);
            row->pairs = NULL;
            row->cap = 0;
        }
    }
    publish(c);
}

/* Intern ids[0, n) as user rows (lanes = 0) or as coverage lanes, each
 * one's index in out: how a restore names the rows and lanes its columns
 * refer to before it loads them.  Returns OUT_OF_MEMORY or 0. */
int intern(EventCtx *c, const int64_t *ids, int64_t n, int64_t lanes,
           int64_t *out) {
    Store *st = c->store;
    for (int64_t i = 0; i < n; i++) {
        out[i] = lanes ? map_intern(&st->lanes, ids[i], c->lane_user, c->lcap)
                       : map_intern(&st->users, ids[i], c->row_user, c->ucap);
        if (out[i] < 0)
            return OUT_OF_MEMORY;
    }
    publish(c);
    return reserve_rows(st, st->users.count);
}

/* The pairs of user's row credited at or after start: their count, the
 * first at *out.  The plane's one read of the store. */
int64_t suffix(const Store *st, int64_t user, int64_t start,
               const Pair **out) {
    int64_t row = map_find(&st->users, user);
    if (row < 0 || row >= st->nrows)
        return 0;
    const Row *r = st->rows + row;
    int64_t at = first_at(r, start);
    *out = r->pairs + at;
    return r->len - at;
}

/* A snapshot's per-user sections, filled by export_state. */
typedef struct {
    int64_t *users, *counts, *v, *t; /* the pairs, users' runs in row order */
    int64_t *crow, *ccol;            /* singleton-cache entries ... */
    double *cval;
    int64_t *mrow, *mcol; /* ... and membership entries, row-major */
    uint64_t *mval;
    int64_t room; /* entries crow..mval hold */
    int64_t nusers, npairs, ncache, nmember; /* what the export holds */
} Export;

/* Write out, in one pass over the rows holding a pair credited at or
 * after oldest (the oldest live column's start), those pairs -- user ids
 * and counts, influenced user ids and times -- and the row's non-zero
 * cache2d and mem2d entries in the columns [0, n) whose position (their
 * place in the snapshot) is not -1.  The rows skipped hold no such entry:
 * a live column's cache counts its user's pairs from the column's start
 * on, and its seeds gained some.  Entries past room are counted, not
 * written: Python retries with room = ncache when it falls short. */
void export_state(const EventCtx *c, int64_t n, int64_t oldest,
                  const int64_t *position, Export *e) {
    const Store *st = c->store;
    e->nusers = e->npairs = e->ncache = e->nmember = 0;
    for (int64_t row = 0; row < st->nrows; row++) {
        const Row *r = st->rows + row;
        int64_t at = first_at(r, oldest);
        if (at == r->len)
            continue;
        e->users[e->nusers] = c->row_user[row];
        e->counts[e->nusers++] = r->len - at;
        for (; at < r->len; at++, e->npairs++) {
            e->v[e->npairs] = c->lane_user[r->pairs[at].lane];
            e->t[e->npairs] = r->pairs[at].time;
        }
        const double *cache = c->cache2d + row * c->cap;
        const uint64_t *mem = c->mem2d + row * c->cap;
        for (int64_t col = 0; col < n; col++) {
            int64_t place = position[col];
            if (place < 0)
                continue;
            if (cache[col] != 0.0 && e->ncache++ < e->room) {
                e->crow[e->ncache - 1] = row;
                e->ccol[e->ncache - 1] = place;
                e->cval[e->ncache - 1] = cache[col];
            }
            if (mem[col] && e->nmember++ < e->room) {
                e->mrow[e->nmember - 1] = row;
                e->mcol[e->nmember - 1] = place;
                e->mval[e->nmember - 1] = mem[col];
            }
        }
    }
}

/* ---- the diffusion forest's slide resolve --------------------------------
 *
 * DiffusionForest keeps one row per stored action in int64 columns (row
 * times ascending; the ones below first are pruned): its time, its depth
 * and its influencer run infl[bounds[row]:bounds[row + 1]], whose last
 * entry is the performer.  resolve_slide resolves a slide of n actions
 * against those rows, exactly as DiffusionForest.add does one at a time,
 * and writes the slide's records in the records_to_columns layout (depth,
 * fan, the concatenated runs in links) plus each row's end in the
 * forest's influencer column (ends, counted from bounds[nrows]).  It reads
 * the forest and changes nothing in it: Python appends the rows, so a
 * failed or refused call leaves the forest as it was.
 *
 * Per action, as add: a response whose parent is not a live row -- pruned
 * below the horizon, or never stored -- is truncated to a root; an action
 * at or below the newest stored time is a late one, which only a
 * redelivery below the horizon may be (it resolves as an unstored root);
 * and after each stored action the horizon moves to time - retention,
 * which moves the first live row, so a parent this slide's earlier actions
 * pushed below the horizon is cut too.  The slide's stored rows are
 * virtual rows nrows, nrows + 1, ... after the forest's.
 *
 * Returns 0, NEED_ROOM (links holds fewer than the slide's runs; retry
 * with more room), DUPLICATE (action bad was already added) or UNORDERED
 * (action bad arrives at or below the newest stored time, above the
 * horizon). */
enum { DUPLICATE = 4, UNORDERED = 5 };

typedef struct {
    const int64_t *time;   /* the forest's rows: nrows + 1 bounds */
    const int64_t *depth;
    const int64_t *bounds;
    const int64_t *infl;
    int64_t first, nrows;  /* live rows are [first, nrows) */
    int64_t retention;     /* 0: none */
    int64_t oldest;        /* in/out: the smallest time still stored */
    const int64_t *a_time; /* (n) the slide's actions */
    const int64_t *a_user;
    const int64_t *a_parent;
    int64_t n;
    int64_t *dep, *fan, *ends; /* (n) out: each action's record */
    int64_t *links;            /* (room) out: the records' runs */
    int64_t *stored;           /* (n) work: action of each stored row */
    int64_t room;
    int64_t npairs, truncated, late, bad; /* out */
} Resolve;

/* Time of virtual row v: a forest row, or the slide's stored row v - nrows. */
static int64_t row_time(const Resolve *r, int64_t v) {
    return v < r->nrows ? r->time[v] : r->a_time[r->stored[v - r->nrows]];
}

/* First virtual row in [lo, total) whose time is >= t. */
static int64_t lower_row(const Resolve *r, int64_t lo, int64_t total,
                         int64_t t) {
    int64_t hi = total;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (row_time(r, mid) < t)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

int resolve_slide(Resolve *r) {
    int64_t base = r->bounds[r->nrows];
    int64_t first = r->first, oldest = r->oldest, ns = 0, q = 0;
    int64_t truncated = 0, late = 0;
    for (int64_t i = 0; i < r->n; i++) {
        int64_t t = r->a_time[i], u = r->a_user[i], p = r->a_parent[i];
        int64_t total = r->nrows + ns;
        if (total && t <= row_time(r, total - 1)) {
            int64_t at = lower_row(r, first, total, t);
            if (at < total && row_time(r, at) == t) {
                r->bad = i;
                return DUPLICATE;
            }
            if (t >= oldest) {
                r->bad = i;
                return UNORDERED;
            }
            if (q == r->room)
                return NEED_ROOM;
            truncated += p != -1;
            late++;
            r->links[q++] = u;
            r->dep[i] = r->fan[i] = 1;
            r->ends[i] = base + q;
            continue;
        }
        int64_t row = -1;
        if (p != -1) {
            /* On dense timestamps the parent sits t - p rows behind the
             * row this action is about to take. */
            row = total - (t - p);
            if (row < first || row_time(r, row) != p) {
                row = lower_row(r, first, total, p);
                if (row == total || row_time(r, row) != p)
                    row = -1;
            }
            truncated += row < 0;
        }
        int64_t start = q, d = 1;
        if (row >= 0) {
            const int64_t *run, *stop;
            if (row < r->nrows) {
                run = r->infl + r->bounds[row];
                stop = r->infl + r->bounds[row + 1];
                d = r->depth[row] + 1;
            } else {
                int64_t k = r->stored[row - r->nrows];
                stop = r->links + (r->ends[k] - base);
                run = stop - r->fan[k];
                d = r->dep[k] + 1;
            }
            if (q + (stop - run) + 1 > r->room)
                return NEED_ROOM;
            for (; run < stop; run++)
                if (*run != u)
                    r->links[q++] = *run;
        } else if (q == r->room) {
            return NEED_ROOM;
        }
        r->links[q++] = u;
        r->dep[i] = d;
        r->fan[i] = q - start;
        r->ends[i] = base + q;
        r->stored[ns++] = i;
        if (r->retention && t - r->retention > oldest) {
            oldest = t - r->retention;
            first = lower_row(r, first, r->nrows + ns, oldest);
        }
    }
    r->oldest = oldest;
    r->npairs = q;
    r->truncated = truncated;
    r->late = late;
    return 0;
}
