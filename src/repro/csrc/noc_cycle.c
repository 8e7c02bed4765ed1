/* Cycle kernel of repro.noc.vector_engine.

   Steps a batch of simulations one cycle at a time in the object
   engine's order (repro.noc.network): link arrivals, then NI injection,
   then one ascending pass over the routers in which each router routes,
   allocates output VCs greedily and arbitrates its switch (with live
   credit reads) before the next router starts.

   Why the fused ascending sweep is object-exact: the object engine visits
   routers in ascending tile order, so each router's switch candidates are
   gathered only after every earlier router has committed, and same-cycle
   upstream credit returns are visible exactly as they are there.  Running
   route and VC allocation inline in that same pass changes nothing,
   because a commit of router g never writes anything a later router's
   route or allocation reads: routes are pure table lookups, output-VC
   ownership (otaken) is per router, and flits sent to a neighbour arrive
   in a future cycle's lane.  Candidacy credit reads still happen after
   every earlier router's commits.

   Packets are rows of the packet columns (p_*), indexed by pid.  A
   batch of MappedWorkloadTraffic generators emits inside the kernel:
   before each cycle, emit_mapped transliterates
   repro.noc.traffic.MappedWorkloadTraffic.emit for every instance in
   turn, drawing from each instance's own NumPy bit generator (bitgen_t
   and bounded_uint32 come from solvers.c, which precedes this file in
   the one translation unit), so the rows and the final generator states
   are those of the Python loop.  Any other batch has its rows emitted in
   Python and copied into the columns before the window.

   The Python side owns every array and grows the packet columns and the
   reply pool when a window returns early; this file allocates nothing.
   Bound through ctypes by repro.noc.cc_kernel, whose ctypes.Structure
   mirrors noc_state field for field. */

#include <stdint.h>

#define N_PORTS 5
#define ARR_FIELDS 3 /* channel, pid, flit index */
#define R_FIELDS 5   /* pending reply: src, dst, class, app, next node */
#define LAT_FIELDS 5 /* per instance: hop cycles, router pipeline,
                        L2 latency, memory latency, replies on */

typedef struct {
    /* geometry and router parameters */
    int64_t B, T, V, C, NT;
    int64_t depth, pipe, lat, ring, per;
    /* immutable tables: first VC of each traffic class, output port by
       [local tile * T + local dst], upstream credit slot of each input
       channel (-1 for none), and the downstream input-channel base of
       each link (router * 4 + port - 1) */
    const int64_t *vclo, *route, *upcv, *arr_base;
    /* channel state (NT * C channels), ring slots (channels * ring) and
       switch pointers (NT * N_PORTS) */
    uint8_t *st, *otaken;
    int64_t *occ, *head, *outp, *outv, *credits, *sa_ptr;
    int64_t *s_pid, *s_fi, *s_ready;
    /* link pipeline: lat + 1 lanes of up to NT * 4 arrivals, lane
       (cycle % (lat + 1)) holding that cycle's */
    int64_t *arr, *arr_n;
    /* network interfaces: per-tile FIFO of pids as a linked list through
       q_next, plus the packet mid-injection (-1 for none) */
    int64_t *q_head, *q_tail, *q_next, *ni_cur, *ni_fi, *ni_vc;
    /* buffered flits per router (routers at zero are skipped) */
    int64_t *rbuf;
    /* packet columns indexed by pid: nrows rows of cap */
    int64_t *p_src, *p_dst, *p_cls, *p_len, *p_created, *p_inst, *p_app;
    int64_t *p_ej;
    /* delivered pids in delivery order */
    int64_t *dlog;
    /* per-instance counters */
    int64_t *f_inj, *f_ej, *f_routed, *buf_writes;
    /* mapped traffic (unused when Python emits): instance b's T threads
       (OBMInstance pads every workload to the tile count) are b * T ..
       b * T + T - 1, with source tile t_tile and app t_app; its 2 * T
       draw probabilities (cache row, then memory row) start at
       t_p + 2 * b * T.  t_near holds each instance's nearest-MC tile per
       tile, hops the T x T hop counts and t_lat LAT_FIELDS per
       instance. */
    const int64_t *t_tile, *t_app, *t_near, *hops, *t_lat;
    /* pending replies: per-instance rings of rring FIFO buckets (head,
       tail node, -1 for empty), bucket (due % rring) holding the replies
       due that cycle, over a pool of rcap R_FIELDS nodes */
    int64_t *r_head, *r_tail, *r_pool;
    const double *t_p;
    double *t_draw; /* scratch: one instance's 2 * T draws */
    void **bitgen;  /* per instance: its generator's bitgen_t */
    /* scalars */
    int64_t now, tot_buf, tot_link, ni_npkts, ndel;
    int64_t nrows, cap;
    /* a cycle adds at most t_rows rows besides the replies pending
       before it, and at most t_replies new replies */
    int64_t t_rows, t_replies;
    /* reply pool: nodes ever used, free-list head (-1 none), live nodes */
    int64_t rring, rcap, rused, rfree, rlive;
} noc_state;

int64_t noc_state_size(void) { return (int64_t)sizeof(noc_state); }

/* Queue rows [lo, hi) on their source NIs; local packets complete now.
   Counts each row in offered[instance] unless offered is NULL. */
static void admit(noc_state *s, int64_t lo, int64_t hi, int64_t *offered)
{
    for (int64_t pid = lo; pid < hi; pid++) {
        int64_t src = s->p_src[pid];
        if (offered)
            offered[s->p_inst[pid]]++;
        if (src == s->p_dst[pid]) {
            s->p_ej[pid] = s->now;
            s->dlog[s->ndel++] = pid;
            continue;
        }
        int64_t g = s->p_inst[pid] * s->T + src;
        s->q_next[pid] = -1;
        if (s->q_tail[g] < 0)
            s->q_head[g] = pid;
        else
            s->q_next[s->q_tail[g]] = pid;
        s->q_tail[g] = pid;
        s->ni_npkts++;
    }
}

/* Write one flit into the tail of channel ch's ring. */
static void buffer_write(noc_state *s, int64_t ch, int64_t pid, int64_t fi)
{
    int64_t oc = s->occ[ch];
    int64_t slot = ch * s->ring + ((s->head[ch] + oc) & (s->ring - 1));
    s->s_pid[slot] = pid;
    s->s_fi[slot] = fi;
    s->s_ready[slot] = s->now + s->pipe;
    s->occ[ch] = oc + 1;
    if (s->st[ch] == 0)
        s->st[ch] = 1;
    s->rbuf[ch / s->C]++;
    s->buf_writes[ch / (s->T * s->C)]++;
    s->tot_buf++;
}

/* Object-exact NI injection for tile g: at most one flit. */
static int64_t inject(noc_state *s, int64_t g)
{
    int64_t cur = s->ni_cur[g];
    if (cur < 0) {
        int64_t pid = s->q_head[g];
        if (pid < 0)
            return 0;
        int64_t lo = s->vclo[s->p_cls[pid]], vc = -1;
        for (int64_t v = lo; v < lo + s->per; v++) {
            int64_t c0 = g * s->C + v; /* LOCAL is port 0 */
            if (s->st[c0] == 0 && s->occ[c0] == 0) {
                vc = v;
                break;
            }
        }
        if (vc < 0)
            return 0;
        s->q_head[g] = s->q_next[pid];
        if (s->q_head[g] < 0)
            s->q_tail[g] = -1;
        s->ni_cur[g] = cur = pid;
        s->ni_fi[g] = 0;
        s->ni_vc[g] = vc;
    }
    int64_t ch = g * s->C + s->ni_vc[g];
    if (s->occ[ch] >= s->depth)
        return 0;
    int64_t fi = s->ni_fi[g];
    buffer_write(s, ch, cur, fi);
    s->f_inj[g / s->T]++;
    if (fi + 1 >= s->p_len[cur]) {
        s->ni_cur[g] = -1;
        s->ni_npkts--;
    } else {
        s->ni_fi[g] = fi + 1;
    }
    return 1;
}

/* Move the front flit of channel w (router g) out through port op. */
static void commit(noc_state *s, int64_t g, int64_t w, int64_t op)
{
    int64_t f = w * s->ring + (s->head[w] & (s->ring - 1));
    int64_t pid = s->s_pid[f], fi = s->s_fi[f];
    s->head[w]++;
    int64_t oc = --s->occ[w];
    s->rbuf[g]--;
    s->tot_buf--;
    int64_t b = g / s->T;
    s->f_routed[b]++;
    int64_t ov = s->outv[w];
    int64_t slot = g * s->C + op * s->V + ov;
    int is_tail = fi + 1 == s->p_len[pid];
    if (op == 0) {
        /* Ejection skips the credit decrement: the NI returns the LOCAL
           credit the same cycle (net zero, object-exact). */
        s->f_ej[b]++;
        if (is_tail) {
            s->p_ej[pid] = s->now;
            s->dlog[s->ndel++] = pid;
        }
    } else {
        s->credits[slot]--;
        int64_t lane = (s->now + s->lat) % (s->lat + 1);
        int64_t *e = s->arr + (lane * s->NT * 4 + s->arr_n[lane]++) * ARR_FIELDS;
        e[0] = s->arr_base[g * 4 + op - 1] + ov;
        e[1] = pid;
        e[2] = fi;
        s->tot_link++;
    }
    if (s->upcv[w] >= 0)
        s->credits[s->upcv[w]]++;
    if (is_tail) {
        s->otaken[slot] = 0;
        s->st[w] = oc > 0 ? 1 : 0;
    }
}

/* One router's fused route + VC allocation + switch step; returns the
   flits it moved.  Candidates are gathered over the router's channels in
   ascending order (every earlier router has already committed, so credit
   reads see their same-cycle returns), then each output port's winner
   moves.  Ports commit in any order: they touch disjoint slots, and only
   port 0 delivers packets. */
static int64_t route_and_switch(noc_state *s, int64_t g)
{
    const int64_t now = s->now, C = s->C, V = s->V, rm = s->ring - 1;
    const int64_t base = g * C;
    int64_t best[N_PORTS] = {-1, -1, -1, -1, -1};
    int64_t best_key[N_PORTS] = {0, 0, 0, 0, 0};
    for (int64_t k = 0; k < C; k++) {
        int64_t c = base + k;
        uint8_t st = s->st[c];
        if (st == 0)
            continue;
        int64_t f = c * s->ring + (s->head[c] & rm);
        if (st == 3) {
            if (s->occ[c] <= 0 || s->s_ready[f] > now)
                continue;
        } else {
            /* Route (state 1) and greedy first-free VC allocation within
               the packet's class partition; failure keeps it awaiting. */
            int64_t pid = s->s_pid[f];
            if (st == 1) {
                s->outp[c] = s->route[(g % s->T) * s->T + s->p_dst[pid]];
                s->st[c] = 2;
            }
            int64_t lo = s->vclo[s->p_cls[pid]];
            int64_t ob = base + s->outp[c] * V + lo, kk = 0;
            while (kk < s->per && s->otaken[ob + kk])
                kk++;
            if (kk == s->per)
                continue;
            s->otaken[ob + kk] = 1;
            s->outv[c] = lo + kk;
            s->st[c] = 3;
            if (s->s_ready[f] > now)
                continue;
        }
        int64_t op = s->outp[c];
        if (s->credits[base + op * V + s->outv[c]] <= 0)
            continue;
        /* Round-robin: (key - pointer) mod 64, as the object engine. */
        int64_t key = (k - s->sa_ptr[g * N_PORTS + op]) & 63;
        if (best[op] < 0 || key < best_key[op]) {
            best[op] = k;
            best_key[op] = key;
        }
    }
    int64_t moved = 0;
    for (int64_t op = 0; op < N_PORTS; op++) {
        int64_t k = best[op];
        if (k < 0)
            continue;
        s->sa_ptr[g * N_PORTS + op] = k + 1 == C ? 0 : k + 1;
        commit(s, g, base + k, op);
        moved++;
    }
    return moved;
}

/* Advance every instance by one cycle; returns flits moved. */
static int64_t step(noc_state *s)
{
    int64_t moved = 0;
    if (s->tot_link) {
        int64_t lane = s->now % (s->lat + 1), n = s->arr_n[lane];
        const int64_t *e = s->arr + lane * s->NT * 4 * ARR_FIELDS;
        for (int64_t i = 0; i < n; i++, e += ARR_FIELDS)
            buffer_write(s, e[0], e[1], e[2]);
        s->arr_n[lane] = 0;
        s->tot_link -= n;
        moved += n;
    }
    if (s->ni_npkts) {
        for (int64_t g = 0; g < s->NT; g++)
            moved += inject(s, g);
    }
    if (s->tot_buf) {
        for (int64_t g = 0; g < s->NT; g++) {
            if (s->rbuf[g])
                moved += route_and_switch(s, g);
        }
    }
    s->now++;
    return moved;
}

/* Earliest cycle at which a flit could move on its own, or -1. */
static int64_t next_event_time(const noc_state *s)
{
    int64_t best = -1;
    if (s->tot_link) {
        for (int64_t k = 0; k <= s->lat; k++) {
            if (s->arr_n[(s->now + k) % (s->lat + 1)]) {
                best = s->now + k;
                break;
            }
        }
    }
    if (s->tot_buf) {
        for (int64_t c = 0; c < s->NT * s->C; c++) {
            if (s->st[c] != 3 || s->occ[c] <= 0)
                continue;
            int64_t base = c / s->C * s->C;
            if (s->credits[base + s->outp[c] * s->V + s->outv[c]] <= 0)
                continue;
            int64_t t = s->s_ready[c * s->ring + (s->head[c] & (s->ring - 1))];
            if (best < 0 || t < best)
                best = t;
        }
    }
    return best;
}

/* Append one packet row created now. */
static void append_row(noc_state *s, int64_t b, int64_t src, int64_t dst,
                       int64_t cls, int64_t len, int64_t app)
{
    int64_t pid = s->nrows++;
    s->p_src[pid] = src;
    s->p_dst[pid] = dst;
    s->p_cls[pid] = cls;
    s->p_len[pid] = len;
    s->p_created[pid] = s->now;
    s->p_inst[pid] = b;
    s->p_app[pid] = app;
}

/* Schedule instance b's reply (src, dst, cls, app) for cycle due, behind
   the replies already due then. */
static void schedule_reply(noc_state *s, int64_t b, int64_t due, int64_t src,
                           int64_t dst, int64_t cls, int64_t app)
{
    int64_t node = s->rfree;
    if (node >= 0)
        s->rfree = s->r_pool[node * R_FIELDS + 4];
    else
        node = s->rused++;
    s->rlive++;
    int64_t *r = s->r_pool + node * R_FIELDS;
    r[0] = src;
    r[1] = dst;
    r[2] = cls;
    r[3] = app;
    r[4] = -1;
    int64_t k = b * s->rring + (due & (s->rring - 1));
    if (s->r_tail[k] < 0)
        s->r_head[k] = node;
    else
        s->r_pool[s->r_tail[k] * R_FIELDS + 4] = node;
    s->r_tail[k] = node;
}

/* MappedWorkloadTraffic.emit(now) for every instance, in instance order:
   2 * n uniform draws against the cache and memory probabilities; the
   hits row-major (cache row first, in thread order), each cache hit
   drawing integers(T) for its destination and each memory hit going to
   the nearest MC; then the replies due now, in scheduling order.  A
   reply is due est[src][dst] + the L2 or memory latency after its
   request, est being hops * (pipeline + link) + pipeline. */
static void emit_mapped(noc_state *s)
{
    const int64_t T = s->T, now = s->now;
    double *draw = s->t_draw;
    for (int64_t b = 0; b < s->B; b++) {
        bitgen_t *bg = (bitgen_t *)s->bitgen[b];
        const int64_t t0 = b * T;
        const double *p = s->t_p + 2 * t0;
        const int64_t *lat = s->t_lat + b * LAT_FIELDS;
        for (int64_t i = 0; i < 2 * T; i++)
            draw[i] = bg->next_double(bg->state);
        for (int64_t i = 0; i < 2 * T; i++) {
            if (!(draw[i] < p[i]))
                continue;
            int64_t memory = i >= T, thread = t0 + i - memory * T;
            int64_t src = s->t_tile[thread], app = s->t_app[thread], dst;
            if (memory)
                dst = s->t_near[b * T + src];
            else
                dst = bounded_uint32(bg, (uint32_t)(T - 1));
            int64_t cls = memory ? 2 : 0; /* MEM_REQUEST : CACHE_REQUEST */
            append_row(s, b, src, dst, cls, 1, app);
            if (lat[4]) {
                int64_t due = now + s->hops[src * T + dst] * lat[0] + lat[1]
                              + (memory ? lat[3] : lat[2]);
                schedule_reply(s, b, due, dst, src, cls + 1, app);
            }
        }
        int64_t k = b * s->rring + (now & (s->rring - 1));
        int64_t node = s->r_head[k];
        while (node >= 0) {
            const int64_t *r = s->r_pool + node * R_FIELDS;
            append_row(s, b, r[0], r[1], r[2], 5, r[3]);
            int64_t next = r[4];
            s->r_pool[node * R_FIELDS + 4] = s->rfree;
            s->rfree = node;
            s->rlive--;
            node = next;
        }
        s->r_head[k] = s->r_tail[k] = -1;
    }
}

/* Run up to `cycles` cycles from now; returns how many ran.  With bounds,
   cycle k first admits the rows [bounds[k], bounds[k + 1]) that Python
   emitted.  Without, each cycle first emits the mapped traffic into the
   columns, and the window stops early, before any draw of a cycle, when
   that cycle could overflow the columns or the reply pool.  offered
   (NULL for none) counts every admitted row per instance. */
int64_t noc_window(noc_state *s, const int64_t *bounds, int64_t cycles,
                   int64_t *offered)
{
    for (int64_t k = 0; k < cycles; k++) {
        if (bounds) {
            admit(s, bounds[k], bounds[k + 1], offered);
        } else {
            if (s->nrows + s->t_rows + s->rlive > s->cap
                || s->rlive + s->t_replies > s->rcap)
                return k;
            int64_t lo = s->nrows;
            emit_mapped(s);
            admit(s, lo, s->nrows, offered);
        }
        step(s);
    }
    return cycles;
}

/* Step until the network is empty, jumping over idle cycles.  Returns 0,
   or 1 if it failed to drain within max_cycles. */
int64_t noc_drain(noc_state *s, int64_t max_cycles)
{
    int64_t start = s->now;
    while (s->tot_buf || s->tot_link || s->ni_npkts) {
        if (s->now - start > max_cycles)
            return 1;
        if (step(s) == 0 && (s->tot_buf || s->tot_link || s->ni_npkts)) {
            int64_t nxt = next_event_time(s);
            if (nxt >= 0 && nxt > s->now)
                s->now = nxt;
        }
    }
    return 0;
}

/* Write instance b's pending replies as (due, src, dst, class, app) rows
   into out, by due cycle and then in scheduling order; returns the row
   count (at most rlive). */
int64_t noc_pending(const noc_state *s, int64_t b, int64_t *out)
{
    int64_t n = 0;
    for (int64_t due = s->now; due < s->now + s->rring; due++) {
        int64_t node = s->r_head[b * s->rring + (due & (s->rring - 1))];
        for (; node >= 0; node = s->r_pool[node * R_FIELDS + 4], n++) {
            out[n * 5] = due;
            for (int64_t f = 0; f < 4; f++)
                out[n * 5 + 1 + f] = s->r_pool[node * R_FIELDS + f];
        }
    }
    return n;
}
