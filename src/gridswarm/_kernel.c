/* The per-wake hot path of gridswarm, compiled.

   This module holds sensing, the six decide rules, the body of
   ``Simulation._wake`` (wake keys, the wake order, the mobile and
   settled branches), the marking of settled agents whose ground
   neighborhood changed, the building of every logged ``Event``, the
   event-log line formatter, and the run's random stream: PCG64 seeded
   as NumPy's ``SeedSequence`` seeds it, so it draws the same floats as
   NumPy's ``default_rng(seed).random()``.

   It accepts the engine's own types and no others: agents are
   ``AgentRecord``s, read and written straight through their slots; the
   occupant layers ``ground`` and ``air`` are lists whose cells hold an
   ``AgentRecord`` or ``None``; the region's ``neighbors`` and
   ``distances`` are tuples, a neighbor index of ``-1`` is a wall and
   any index outside a sequence raises ``IndexError``; an ``Event`` has
   int fields, a str action and an int or float energy.  A sensed
   neighborhood handed to a rule from Python holds in each slot
   ``SENSE_EMPTY``, ``SENSE_WALL`` or an ``(s1, s2)`` tuple of ints.
   Anything else raises ``TypeError``.  The run's energy
   parameters are read as doubles, and every energy the kernel stores is
   a Python float, so every trajectory is the one the Python definitions
   give, draw for draw.

   The wake order of a step is the kernel's own, built from
   ``Simulation.awake``, the set of ids of the agents that wake next
   step: a sorted array of keys read by a cursor and a byte per agent
   id, both sized at the agents of the step's start (each agent wakes at
   most once a step, and none enters during the wakes).  The kernel
   keeps ``awake`` up to date at a ground change and at the end of a
   settled wake.  ``Simulation._apply_mobile(a, act, t)`` settles or
   shuts an agent down; the kernel then marks the settler's cell itself,
   so a settled neighbor whose wake is still ahead wakes into the change.

   ``_build.py`` compiles it on first import.  ``engine.py`` hands it
   the Python classes it needs through ``bind``.

   A wake takes one of two paths, chosen once per ``wake`` call for each
   mode.  When ``sense`` and the mode's decide rule are both this
   module's own functions, the wake gathers the sensed slots straight
   off the occupants' records and runs the rule on them, building no
   tuple and no ``Action``.  Otherwise (a wrapper that times or checks
   them) it calls both through Python with the usual arguments and
   decodes the result into C values at the call: an ``Action`` into its
   kind, direction and ``s2``, a settled ``s1`` into a long.  After that
   every wake runs the same code. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Shared with agents.py and rules.py; the tests check they agree. */
enum { MODE_MOBILE = 0, MODE_SETTLED = 1 };
enum { S_MOBILE = 0, S_BEACON = 1, S_CLOSED_BEACON = 2, S_LOW_ENERGY = 3 };
enum { A_STAY = 0, A_MOVE = 1, A_SETTLE_HERE = 2, A_SETTLE_AT = 3, A_SHUTDOWN = 4 };
static const char *const MODE_TEXT[] = {"mobile", "settled", "shutdown", "failed"};
static const char *const S1_TEXT[] = {"mobile", "beacon", "closed_beacon", "low_energy"};

/* Wake keys pack the sub-step above the agent id. */
#define ID_BITS 32
#define ID_MASK ((UINT64_C(1) << ID_BITS) - 1)

/* Attribute names; the first NF are the fields of an AgentRecord. */
enum {
    F_ID, F_MODE, F_S1, F_S2, F_POS, F_ENERGY, F_TM, F_SETTLE, NF,
    N_KIND = NF, N_DIRECTION, N_REGION, N_NEIGHBORS, N_DISTANCES, N_GROUND,
    N_AIR, N_AGENTS, N_AWAKE, N_DRAW, N_P, N_E0, N_ALPHA,
    N_ECRIT_MOBILE, N_ECRIT_SETTLED, N_APPROACH, N_M, N_D_MAX, N_ADVERSARIAL,
    N_BATCH, N_COUNT
};
static const char *const NAMES[N_COUNT] = {
    "id", "mode", "s1", "s2", "pos", "energy", "t_m", "settle_step",
    "kind", "direction", "region", "neighbors", "distances", "ground", "air",
    "agents", "awake", "draw", "p", "e0", "alpha",
    "ecrit_mobile", "ecrit_settled", "approach", "m", "d_max",
    "_adversarial", "_batch",
};
static PyObject *NAME[N_COUNT];

static PyObject *EMPTY, *WALL;  /* SENSE_EMPTY and SENSE_WALL: the ints 0, -1 */
static PyObject *ZERO, *ONE;
static PyObject *STR_MOVE, *STR_TRANSITION;

/* Set by ``bind``. */
static PyTypeObject *Record;      /* AgentRecord */
static Py_ssize_t rec_off[NF];    /* its slot offsets */
static PyTypeObject *EventType;
static PyObject *InvariantError, *action_fn;

/* This module's own sense and rules, told apart from wrappers by identity. */
enum { R_SLLG, R_SLUG, R_SLTT, NR };
static PyObject *own_sense, *own_mobile[NR], *own_settled[NR];

/* -- AgentRecord fields -------------------------------------------------- */

/* The slot of field ``f`` of ``a``, or NULL if ``a`` is no AgentRecord. */
static PyObject **
rslot(PyObject *a, int f)
{
    if (Record == NULL || Py_TYPE(a) != Record) {
        PyErr_Format(PyExc_TypeError, "expected an AgentRecord, got %.100s", Py_TYPE(a)->tp_name);
        return NULL;
    }
    return (PyObject **)((char *)a + rec_off[f]);
}

/* New reference to field ``f`` of ``a``. */
static PyObject *
rget(PyObject *a, int f)
{
    PyObject **slot = rslot(a, f);
    if (slot == NULL)
        return NULL;
    if (*slot == NULL) {
        PyErr_SetObject(PyExc_AttributeError, NAME[f]);
        return NULL;
    }
    Py_INCREF(*slot);
    return *slot;
}

static int
rget_long(PyObject *a, int f, long *out)
{
    PyObject *v = rget(a, f);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
rget_double(PyObject *a, int f, double *out)
{
    PyObject *v = rget(a, f);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* Set field ``f`` of ``a`` to ``v`` (not stolen). */
static int
rset(PyObject *a, int f, PyObject *v)
{
    PyObject **slot = rslot(a, f);
    if (slot == NULL)
        return -1;
    Py_INCREF(v);
    Py_XSETREF(*slot, v);
    return 0;
}

/* As ``rset``, but steals ``v``, which may be NULL after a failed call. */
static int
rset_new(PyObject *a, int f, PyObject *v)
{
    int r;
    if (v == NULL)
        return -1;
    r = rset(a, f, v);
    Py_DECREF(v);
    return r;
}

static int
attr_long(PyObject *o, int n, long *out)
{
    PyObject *v = PyObject_GetAttr(o, NAME[n]);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
attr_double(PyObject *o, int n, double *out)
{
    PyObject *v = PyObject_GetAttr(o, NAME[n]);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* -- sequences ----------------------------------------------------------- */

/* Borrowed item ``i`` of a list; ``IndexError`` unless ``0 <= i < len``. */
static PyObject *
list_item(PyObject *list, long i)
{
    if (!PyList_Check(list)) {
        PyErr_Format(PyExc_TypeError, "expected a list, got %.100s", Py_TYPE(list)->tp_name);
        return NULL;
    }
    if (i < 0 || i >= PyList_GET_SIZE(list)) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    return PyList_GET_ITEM(list, i);
}

/* Store ``v`` (not stolen) at item ``i`` of a list. */
static int
list_set(PyObject *list, long i, PyObject *v)
{
    PyObject *old = list_item(list, i);
    if (old == NULL)
        return -1;
    Py_INCREF(v);
    PyList_SET_ITEM(list, i, v);
    Py_DECREF(old);
    return 0;
}

/* New reference to item ``i`` of a tuple; ``IndexError`` unless
   ``0 <= i < len``. */
static PyObject *
tuple_item(PyObject *tuple, long i)
{
    PyObject *v;
    if (!PyTuple_CheckExact(tuple)) {
        PyErr_Format(PyExc_TypeError, "expected a tuple, got %.100s", Py_TYPE(tuple)->tp_name);
        return NULL;
    }
    if (i < 0 || i >= PyTuple_GET_SIZE(tuple)) {
        PyErr_SetString(PyExc_IndexError, "tuple index out of range");
        return NULL;
    }
    v = PyTuple_GET_ITEM(tuple, i);
    Py_INCREF(v);
    return v;
}

static int
tuple_long(PyObject *tuple, long i, long *out)
{
    PyObject *v = tuple_item(tuple, i);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* -- sensed slots -------------------------------------------------------- */

enum { K_EMPTY, K_WALL, K_AGENT };
typedef struct {
    int kind;
    long s1, s2;    /* of an agent */
    PyObject *rec;  /* the agent, when read off a layer (borrowed) */
} slot_t;

/* A slot of a sensed tuple: ``SENSE_EMPTY``, ``SENSE_WALL`` or an agent's
   ``(s1, s2)``. */
static int
decode(PyObject *o, slot_t *s)
{
    if (o == EMPTY) {
        s->kind = K_EMPTY;
        return 0;
    }
    if (PyTuple_CheckExact(o) && PyTuple_GET_SIZE(o) == 2) {
        s->kind = K_AGENT;
        s->s1 = PyLong_AsLong(PyTuple_GET_ITEM(o, 0));
        if (s->s1 == -1 && PyErr_Occurred())
            return -1;
        s->s2 = PyLong_AsLong(PyTuple_GET_ITEM(o, 1));
        return (s->s2 == -1 && PyErr_Occurred()) ? -1 : 0;
    }
    if (o == WALL) {
        s->kind = K_WALL;
        return 0;
    }
    PyErr_Format(PyExc_TypeError,
                 "a sensed slot is SENSE_EMPTY, SENSE_WALL or an (s1, s2) pair, not %R", o);
    return -1;
}

/* A slot read off a layer cell: its occupant ``o`` is ``None`` (empty)
   or an ``AgentRecord``, whose own ``s1`` and ``s2`` it projects. */
static int
occupant(PyObject *o, slot_t *s)
{
    s->rec = o;
    if (o == Py_None) {
        s->kind = K_EMPTY;
        return 0;
    }
    s->kind = K_AGENT;
    return rget_long(o, F_S1, &s->s1) < 0 ? -1 : rget_long(o, F_S2, &s->s2);
}

/* Slots the rules read: a mobile reads all but its own air (slot 5), a
   settled agent its four ground neighbors. */
#define MOBILE_SLOTS 0x3DF
#define SETTLED_SLOTS 0x1E

/* Decode the slots ``mask`` names of a sensed neighborhood ``xi``, any
   10-item sequence; the others read empty. */
static int
decode_xi(PyObject *xi, slot_t *sl, int mask)
{
    PyObject *fast = PySequence_Fast(xi, "a sensed neighborhood must be a sequence");
    int i, r = -1;
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != 10)
        PyErr_Format(PyExc_ValueError, "a sensed neighborhood has 10 slots, not %zd",
                     PySequence_Fast_GET_SIZE(fast));
    else
        for (r = i = 0; r == 0 && i < 10; i++) {
            sl[i].kind = K_EMPTY;
            if (mask >> i & 1)
                r = decode(PySequence_Fast_GET_ITEM(fast, i), &sl[i]);
        }
    Py_DECREF(fast);
    return r;
}

/* -- the parameters and the draw a rule reads ---------------------------- */

typedef struct {
    PyObject *p;     /* SimParams, borrowed */
    PyObject *draw;  /* borrowed */
    double ecrit_mobile, ecrit_settled;
    long d_max;
    int have_d_max;  /* ``p.d_max`` is read once, when first needed */
} ctx_t;

static int
get_d_max(ctx_t *c, long *out)
{
    if (!c->have_d_max) {
        if (attr_long(c->p, N_D_MAX, &c->d_max) < 0)
            return -1;
        c->have_d_max = 1;
    }
    *out = c->d_max;
    return 0;
}

/* ``int(u * k)`` as an index into ``k`` items, with Python's checks. */
static int
draw_index(double u, Py_ssize_t k, Py_ssize_t *out)
{
    double x = u * (double)k;
    if (isnan(x)) {
        PyErr_SetString(PyExc_ValueError, "cannot convert float NaN to integer");
        return -1;
    }
    if (isinf(x)) {
        PyErr_SetString(PyExc_OverflowError, "cannot convert float infinity to integer");
        return -1;
    }
    x = trunc(x);
    if (x >= (double)k || x < -(double)k) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    *out = (Py_ssize_t)x < 0 ? (Py_ssize_t)x + k : (Py_ssize_t)x;
    return 0;
}

static int
call_draw(PyObject *draw, double *u)
{
    PyObject *v = PyObject_CallNoArgs(draw);
    if (v == NULL)
        return -1;
    *u = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return (*u == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* The index ``int(u * k)`` of a uniform choice among ``k``; one draw. */
static int
pick(ctx_t *c, Py_ssize_t k, Py_ssize_t *out)
{
    double u;
    if (call_draw(c->draw, &u) < 0)
        return -1;
    return draw_index(u, k, out);
}

/* -- mobile rules -------------------------------------------------------- */

typedef struct {
    long kind, dir, s2;
} act_t;

static int
act(act_t *a, long kind, long dir, long s2)
{
    a->kind = kind;
    a->dir = dir;
    a->s2 = s2;
    return 0;
}

/* Collect the directions whose ground slot is empty. */
static int
empty_dirs(const slot_t *xi, int *dirs)
{
    int d, k = 0;
    for (d = 1; d <= 4; d++)
        if (xi[d].kind == K_EMPTY)
            dirs[k++] = d;
    return k;
}

static int
is_agent(const slot_t *g, long s1)
{
    return g->kind == K_AGENT && g->s1 == s1;
}

static int
mobile_sllg(ctx_t *c, double energy, long s2, const slot_t *xi, act_t *out)
{
    int dirs[4], k, d, any_up = 0, have = 0;
    long dest, best = 0, d_max;
    Py_ssize_t i;
    if (energy <= c->ecrit_mobile)
        return act(out, A_SHUTDOWN, 0, 0);
    if (xi[0].kind == K_EMPTY)
        return act(out, A_SETTLE_HERE, 0, 1);
    if ((k = empty_dirs(xi, dirs))) {
        if (get_d_max(c, &d_max) < 0)
            return -1;
        if (s2 >= d_max)  /* the settling horizon */
            return act(out, A_STAY, 0, 0);
        if (pick(c, k, &i) < 0)
            return -1;
        return act(out, A_SETTLE_AT, dirs[i], s2 + 1);
    }
    /* Advance: beacons exactly one step up the gradient, air above free. */
    dest = s2 + 1;
    for (d = 1; d <= 4; d++)
        if (is_agent(&xi[d], S_BEACON) && xi[d].s2 == dest) {
            any_up = 1;
            if (xi[d + 5].kind == K_EMPTY)
                dirs[k++] = d;
        }
    if (any_up) {
        if (!k)
            return act(out, A_STAY, 0, 0);
        if (pick(c, k, &i) < 0)
            return -1;
        return act(out, A_MOVE, dirs[i], dest);
    }
    /* Retrace: down to the highest closed beacon below the own counter. */
    for (d = 1; d <= 4; d++)
        if (xi[d + 5].kind == K_EMPTY && is_agent(&xi[d], S_CLOSED_BEACON) && xi[d].s2 < s2) {
            if (!have || xi[d].s2 > best) {
                have = 1;
                best = xi[d].s2;
                k = 0;
                dirs[k++] = d;
            }
            else if (xi[d].s2 == best)
                dirs[k++] = d;
        }
    if (!have)
        return act(out, A_STAY, 0, 0);
    if (pick(c, k, &i) < 0)
        return -1;
    return act(out, A_MOVE, dirs[i], best);
}

static int
mobile_slug(ctx_t *c, double energy, const slot_t *xi, act_t *out)
{
    int dirs[4], ups[4], downs[4], k, nu = 0, nd = 0, d, beacon = 0;
    long s2, up = 0, down = 0, d_max;
    Py_ssize_t i;
    if (energy <= c->ecrit_mobile)
        return act(out, A_SHUTDOWN, 0, 0);
    if (xi[0].kind == K_EMPTY)
        return act(out, A_SETTLE_HERE, 0, 1);
    if (xi[0].kind != K_AGENT) {
        PyErr_SetString(PyExc_TypeError, "'int' object is not subscriptable");
        return -1;
    }
    /* Re-synchronize the own counter from the agent settled beneath. */
    s2 = xi[0].s2;
    if ((k = empty_dirs(xi, dirs))) {
        if (get_d_max(c, &d_max) < 0)
            return -1;
        if (s2 >= d_max)  /* the settling horizon */
            return act(out, A_STAY, 0, 0);
        if (pick(c, k, &i) < 0)
            return -1;
        return act(out, A_SETTLE_AT, dirs[i], s2 + 1);
    }
    /* Advance to the minimal counter above the own one; else retrace to
       the maximal closed counter below it. */
    for (d = 1; d <= 4; d++) {
        const slot_t *g = &xi[d];
        if (xi[d + 5].kind != K_EMPTY || g->kind == K_WALL)
            continue;
        if (g->s1 == S_BEACON) {
            beacon = 1;
            if (g->s2 > s2) {
                if (!nu || g->s2 < up) {
                    up = g->s2;
                    nu = 0;
                    ups[nu++] = d;
                }
                else if (g->s2 == up)
                    ups[nu++] = d;
            }
        }
        else if (g->s1 == S_CLOSED_BEACON && g->s2 < s2) {
            if (!nd || g->s2 > down) {
                down = g->s2;
                nd = 0;
                downs[nd++] = d;
            }
            else if (g->s2 == down)
                downs[nd++] = d;
        }
    }
    if (beacon) {
        if (!nu)
            return act(out, A_STAY, 0, 0);
        if (pick(c, nu, &i) < 0)
            return -1;
        return act(out, A_MOVE, ups[i], up);
    }
    if (nd) {
        if (pick(c, nd, &i) < 0)
            return -1;
        return act(out, A_MOVE, downs[i], down);
    }
    return act(out, A_STAY, 0, 0);
}

static int
mobile_sltt(ctx_t *c, double energy, const slot_t *xi, act_t *out)
{
    int dirs[4], k, d, child = 0;
    Py_ssize_t i;
    if (energy <= c->ecrit_mobile)
        return act(out, A_SHUTDOWN, 0, 0);
    if (xi[0].kind == K_EMPTY)
        return act(out, A_SETTLE_HERE, 0, 0);
    if ((k = empty_dirs(xi, dirs))) {
        if (pick(c, k, &i) < 0)
            return -1;
        return act(out, A_SETTLE_AT, dirs[i], dirs[i]);
    }
    /* Advance along tree children: a beacon in direction d projecting d. */
    for (d = 1; d <= 4; d++)
        if (is_agent(&xi[d], S_BEACON) && xi[d].s2 == d) {
            child = 1;
            if (xi[d + 5].kind == K_EMPTY)
                dirs[k++] = d;
        }
    if (!child)  /* Retrace: closed beacons whose code points back here. */
        for (d = 1; d <= 4; d++)
            if (xi[d + 5].kind == K_EMPTY && is_agent(&xi[d], S_CLOSED_BEACON)
                && labs(xi[d].s2 - d) == 2)
                dirs[k++] = d;
    if (!k)
        return act(out, A_STAY, 0, 0);
    if (pick(c, k, &i) < 0)
        return -1;
    return act(out, A_MOVE, dirs[i], dirs[i]);
}

/* Run mobile rule ``r``; reads ``a.energy`` and, for sllg-ea, ``a.s2``. */
static int
mobile_rule(int r, ctx_t *c, PyObject *a, const slot_t *xi, act_t *out)
{
    double energy;
    long s2;
    if (rget_double(a, F_ENERGY, &energy) < 0)
        return -1;
    if (r == R_SLLG)
        return rget_long(a, F_S2, &s2) < 0 ? -1 : mobile_sllg(c, energy, s2, xi, out);
    return r == R_SLUG ? mobile_slug(c, energy, xi, out) : mobile_sltt(c, energy, xi, out);
}

/* -- settled rules ------------------------------------------------------- */

/* The shared settled-state machine over the sub-states ``rel`` of the
   neighbors the closure condition quantifies over; ``approach1`` tells
   approach 1 from approach 2. */
static long
settled_common(ctx_t *c, double energy, long s1, const slot_t *xi, const long *rel, int nrel,
               int approach1)
{
    int d, full = 1, low = 0, n_closed = 0, n_low = 0;
    if (energy <= c->ecrit_settled)
        return S_LOW_ENERGY;
    for (d = 1; d <= 4; d++) {
        if (xi[d].kind == K_EMPTY)
            full = 0;
        else if (is_agent(&xi[d], S_LOW_ENERGY))
            low = 1;
    }
    for (d = 0; d < nrel; d++) {
        n_closed += rel[d] == S_CLOSED_BEACON;
        n_low += rel[d] == S_LOW_ENERGY;
    }
    if (approach1) {
        if (low)
            return S_LOW_ENERGY;
        if (full && n_closed == nrel)
            return S_CLOSED_BEACON;
        return s1;
    }
    /* Approach 2: exhaustion propagates only through a low-energy
       neighbor, once no empty cell can be cut off. */
    if (full) {
        if (low && n_closed + n_low == nrel)
            return S_LOW_ENERGY;
        if (n_closed == nrel)
            return S_CLOSED_BEACON;
    }
    return s1;
}

/* Run settled rule ``r``; reads ``a.energy``, ``a.s1`` and ``a.s2``. */
static int
settled_rule(int r, ctx_t *c, PyObject *a, const slot_t *xi, int approach1, long *out)
{
    double energy;
    long s1, s2, d_max, rel[4];
    int d, nrel = 0;
    if (rget_double(a, F_ENERGY, &energy) < 0 || rget_long(a, F_S1, &s1) < 0
        || rget_long(a, F_S2, &s2) < 0)
        return -1;
    if (r != R_SLTT) {
        if (get_d_max(c, &d_max) < 0)
            return -1;
        if (s2 >= d_max) {  /* the settling horizon */
            *out = S_LOW_ENERGY;
            return 0;
        }
    }
    for (d = 1; d <= 4; d++) {
        const slot_t *g = &xi[d];
        if (g->kind == K_AGENT
            && (r == R_SLLG ? g->s2 == s2 + 1 : r == R_SLUG ? g->s2 > s2 : g->s2 == d))
            rel[nrel++] = g->s1;
    }
    *out = settled_common(c, energy, s1, xi, rel, nrel, approach1);
    return 0;
}

/* -- the rules and sense as Python callables ----------------------------- */

static int
check_args(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

static int
check_bound(void)
{
    if (EventType != NULL)
        return 0;
    PyErr_SetString(PyExc_RuntimeError, "the kernel is used before engine.py bound it");
    return -1;
}

/* The shared ``Action`` for an outcome, from ``rules._action``. */
static PyObject *
make_action(const act_t *a)
{
    PyObject *args[3] = {PyLong_FromLong(a->kind), PyLong_FromLong(a->dir), PyLong_FromLong(a->s2)};
    PyObject *r = NULL;
    if (check_bound() == 0 && args[0] && args[1] && args[2])
        r = PyObject_Vectorcall(action_fn, args, 3, NULL);
    Py_XDECREF(args[0]);
    Py_XDECREF(args[1]);
    Py_XDECREF(args[2]);
    return r;
}

static PyObject *
py_mobile(int r, const char *name, PyObject *const *args, Py_ssize_t nargs)
{
    ctx_t c = {0};
    slot_t xi[10];
    act_t out;
    if (check_args(name, nargs, 4) < 0)
        return NULL;
    c.p = args[2];
    c.draw = args[3];
    if (attr_double(c.p, N_ECRIT_MOBILE, &c.ecrit_mobile) < 0
        || decode_xi(args[1], xi, MOBILE_SLOTS) < 0 || mobile_rule(r, &c, args[0], xi, &out) < 0)
        return NULL;
    return make_action(&out);
}

static PyObject *
py_settled(int r, const char *name, PyObject *const *args, Py_ssize_t nargs)
{
    ctx_t c = {0};
    slot_t xi[10];
    long out;
    int approach1;
    if (check_args(name, nargs, 4) < 0)
        return NULL;
    c.p = args[2];
    if ((approach1 = PyObject_RichCompareBool(args[3], ONE, Py_EQ)) < 0
        || attr_double(c.p, N_ECRIT_SETTLED, &c.ecrit_settled) < 0
        || decode_xi(args[1], xi, SETTLED_SLOTS) < 0
        || settled_rule(r, &c, args[0], xi, approach1, &out) < 0)
        return NULL;
    return PyLong_FromLong(out);
}

#define RULE(KIND, NAME, R)                                                           \
    static PyObject *k_##KIND##_decide_##NAME(PyObject *Py_UNUSED(m), PyObject *const *args, \
                                               Py_ssize_t nargs)                     \
    {                                                                                 \
        return py_##KIND(R, #KIND "_decide_" #NAME, args, nargs);                     \
    }
RULE(mobile, sllg, R_SLLG)
RULE(mobile, slug, R_SLUG)
RULE(mobile, sltt, R_SLTT)
RULE(settled, sllg, R_SLLG)
RULE(settled, slug, R_SLUG)
RULE(settled, sltt, R_SLTT)

/* Gather the ten sensed slots of agent ``a`` off the occupant layers
   ``ground`` and ``air``: a neighbor index of ``-1`` reads as a wall, and
   a settled agent's air slots read empty. */
static int
gather(PyObject *neighbors, PyObject *ground, PyObject *air, PyObject *a, long mode,
       slot_t *sl)
{
    long cell;
    PyObject *nb, *g, *v = Py_None;
    int i;
    if (mode != MODE_MOBILE && mode != MODE_SETTLED) {
        PyObject *id = rget(a, F_ID);
        if (id == NULL)
            return -1;
        if (mode >= 0 && mode < 4)
            PyErr_Format(PyExc_ValueError, "agent %S cannot sense in mode %s", id, MODE_TEXT[mode]);
        else
            PyErr_Format(PyExc_ValueError, "agent %S cannot sense in mode %ld", id, mode);
        Py_DECREF(id);
        return -1;
    }
    if (rget_long(a, F_POS, &cell) < 0 || (nb = tuple_item(neighbors, cell)) == NULL)
        return -1;
    for (i = 0; i < 5; i++) {
        if (i && tuple_long(nb, i - 1, &cell) < 0)
            break;
        if (cell < 0) {
            sl[i].kind = K_WALL;
            sl[5 + i].kind = mode == MODE_MOBILE ? K_WALL : K_EMPTY;
        }
        else if ((g = list_item(ground, cell)) == NULL
                 || (mode == MODE_MOBILE && (v = list_item(air, cell)) == NULL)
                 || occupant(g, &sl[i]) < 0 || occupant(v, &sl[5 + i]) < 0)
            break;
    }
    Py_DECREF(nb);
    return i < 5 ? -1 : 0;
}

/* The sensed tuple of ten gathered slots, each ``(s1, s2)`` packed from
   the occupant's own slot objects. */
static PyObject *
sensed_tuple(const slot_t *sl)
{
    PyObject *t = PyTuple_New(10), *v;
    int i;
    for (i = 0; t != NULL && i < 10; i++) {
        if (sl[i].kind == K_AGENT) {
            if ((v = PyTuple_Pack(2, *rslot(sl[i].rec, F_S1), *rslot(sl[i].rec, F_S2))) == NULL)
                Py_CLEAR(t);
        }
        else {
            v = sl[i].kind == K_WALL ? WALL : EMPTY;
            Py_INCREF(v);
        }
        if (t != NULL)
            PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

static PyObject *
k_sense(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *region = NULL, *neighbors = NULL, *ground = NULL, *air = NULL, *r = NULL;
    slot_t sl[10];
    long mode;
    if (check_args("sense", nargs, 2) < 0 || rget_long(args[1], F_MODE, &mode) < 0)
        return NULL;
    if ((region = PyObject_GetAttr(args[0], NAME[N_REGION]))
        && (neighbors = PyObject_GetAttr(region, NAME[N_NEIGHBORS]))
        && (ground = PyObject_GetAttr(args[0], NAME[N_GROUND]))
        && (mode != MODE_MOBILE || (air = PyObject_GetAttr(args[0], NAME[N_AIR])))
        && gather(neighbors, ground, air, args[1], mode, sl) == 0)
        r = sensed_tuple(sl);
    Py_XDECREF(region);
    Py_XDECREF(neighbors);
    Py_XDECREF(ground);
    Py_XDECREF(air);
    return r;
}

/* -- the world of one wake call ------------------------------------------ */

typedef struct {
    PyObject *sim, *p, *agents, *ground, *air, *awake;
    PyObject *neighbors, *distances, *draw, *batch, *approach;
    int approach1, adversarial;
    double m, e0, alpha;
    ctx_t ctx;
} world_t;

static void
world_close(world_t *w)
{
    Py_CLEAR(w->p);
    Py_CLEAR(w->agents);
    Py_CLEAR(w->ground);
    Py_CLEAR(w->air);
    Py_CLEAR(w->awake);
    Py_CLEAR(w->neighbors);
    Py_CLEAR(w->distances);
    Py_CLEAR(w->draw);
    Py_CLEAR(w->batch);
    Py_CLEAR(w->approach);
}

/* Read the simulation's state and parameters; ``world_close`` after. */
static int
world_open(world_t *w, PyObject *sim)
{
    PyObject *region, *adv;
    int r;
    memset(w, 0, sizeof(*w));
    w->sim = sim;
#define GET(field, obj, name) ((w->field = PyObject_GetAttr(obj, NAME[name])) != NULL)
    if (!(GET(p, sim, N_P) && GET(agents, sim, N_AGENTS) && GET(ground, sim, N_GROUND)
          && GET(air, sim, N_AIR) && GET(awake, sim, N_AWAKE) && GET(draw, sim, N_DRAW)
          && GET(batch, sim, N_BATCH) && GET(approach, w->p, N_APPROACH)))
        goto error;
#undef GET
    if (w->batch == Py_None)
        Py_CLEAR(w->batch);
    else if (!PyList_Check(w->batch)) {
        PyErr_SetString(PyExc_TypeError, "the event batch must be a list or None");
        goto error;
    }
    if (check_bound() < 0 || (region = PyObject_GetAttr(sim, NAME[N_REGION])) == NULL)
        goto error;
    w->neighbors = PyObject_GetAttr(region, NAME[N_NEIGHBORS]);
    w->distances = PyObject_GetAttr(region, NAME[N_DISTANCES]);
    Py_DECREF(region);
    if (w->neighbors == NULL || w->distances == NULL
        || (adv = PyObject_GetAttr(sim, NAME[N_ADVERSARIAL])) == NULL)
        goto error;
    r = PyObject_IsTrue(adv);
    Py_DECREF(adv);
    if (r < 0)
        goto error;
    w->adversarial = r;
    if ((w->approach1 = PyObject_RichCompareBool(w->approach, ONE, Py_EQ)) < 0
        || attr_double(w->p, N_M, &w->m) < 0 || attr_double(w->p, N_E0, &w->e0) < 0
        || attr_double(w->p, N_ALPHA, &w->alpha) < 0
        || attr_double(w->p, N_ECRIT_MOBILE, &w->ctx.ecrit_mobile) < 0
        || attr_double(w->p, N_ECRIT_SETTLED, &w->ctx.ecrit_settled) < 0)
        goto error;
    w->ctx.p = w->p;
    w->ctx.draw = w->draw;
    return 0;
error:
    world_close(w);
    return -1;
}

/* The wake key of agent ``aid`` this step; a random one costs one draw. */
static int
wake_key(world_t *w, long aid, uint64_t *key)
{
    uint64_t sub;
    if (aid < 1 || (uint64_t)aid > ID_MASK) {
        PyErr_Format(PyExc_OverflowError, "agent id %ld does not fit a wake key", aid);
        return -1;
    }
    if (w->adversarial) {
        PyObject *a = list_item(w->agents, aid - 1);
        long pos, dist;
        if (a == NULL || rget_long(a, F_POS, &pos) < 0 || tuple_long(w->distances, pos, &dist) < 0)
            return -1;
        if (dist < 0 || (uint64_t)dist > ID_MASK) {
            PyErr_Format(PyExc_ValueError, "agent %ld woke on a cell at distance %ld", aid, dist);
            return -1;
        }
        sub = (uint64_t)dist;
    }
    else {
        double u;
        if (call_draw(w->draw, &u) < 0)
            return -1;
        u *= w->m;
        if (!(u >= 0.0 && u < 4294967296.0)) {
            PyErr_SetString(PyExc_ValueError, "a random sub-step lies outside [0, 2**32)");
            return -1;
        }
        sub = (uint64_t)u;
    }
    *key = sub << ID_BITS | (uint64_t)aid;
    return 0;
}

/* The wake order of one step: ``keys[cur:n]`` are the wakes still ahead,
   in order, and ``scheduled[id]`` is 1 for an agent that has a key this
   step.  Both are sized at the agents of the step's start: each of them
   has at most one key a step. */
typedef struct {
    uint64_t *keys;
    unsigned char *scheduled;
    Py_ssize_t n, cur, n_ids;
} order_t;

static void
order_free(order_t *o)
{
    PyMem_Free(o->keys);
    PyMem_Free(o->scheduled);
}

/* Note that agent ``aid`` has a key this step. */
static int
admit(order_t *o, long aid)
{
    if (aid < 1 || aid > o->n_ids || o->scheduled[aid]) {
        PyErr_Format(InvariantError, "agent %ld cannot join this step's wake order", aid);
        return -1;
    }
    o->scheduled[aid] = 1;
    return 0;
}

/* Insert ``key`` of agent ``aid`` after the cursor, in order. */
static int
insort(order_t *o, long aid, uint64_t key)
{
    Py_ssize_t lo = o->cur, hi = o->n, mid;
    if (admit(o, aid) < 0)
        return -1;
    while (lo < hi) {
        mid = (lo + hi) / 2;
        if (key < o->keys[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    memmove(o->keys + lo + 1, o->keys + lo, sizeof(uint64_t) * (size_t)(o->n - lo));
    o->keys[lo] = key;
    o->n++;
    return 0;
}

/* A cell's projected ground state changed: its settled occupant and
   settled neighbors that are not low-energy join ``awake``.  During a wake
   (``order`` not NULL), one whose key this step would come after the
   waking agent's is inserted into the order and wakes into the change
   now. */
static int
mark(world_t *w, long cell, order_t *order)
{
    long cells[5], gid, s1;
    uint64_t key;
    PyObject *nb, *g, *id;
    int i, r;
    if ((nb = tuple_item(w->neighbors, cell)) == NULL)
        return -1;
    cells[0] = cell;
    for (i = 1; i < 5; i++)
        if (tuple_long(nb, i - 1, &cells[i]) < 0) {
            Py_DECREF(nb);
            return -1;
        }
    Py_DECREF(nb);
    for (i = 0; i < 5; i++) {
        if (cells[i] < 0)
            continue;
        if ((g = list_item(w->ground, cells[i])) == NULL)
            return -1;
        if (g == Py_None)
            continue;
        if (rget_long(g, F_S1, &s1) < 0)
            return -1;
        if (s1 == S_LOW_ENERGY)
            continue;
        if ((id = rget(g, F_ID)) == NULL)
            return -1;
        gid = PyLong_AsLong(id);
        r = (gid == -1 && PyErr_Occurred()) ? -1 : PySet_Add(w->awake, id);
        Py_DECREF(id);
        if (r < 0)
            return -1;
        if (order == NULL || (gid <= order->n_ids && order->scheduled[gid]))
            continue;
        if (wake_key(w, gid, &key) < 0
            || (key > order->keys[order->cur - 1] && insort(order, gid, key) < 0))
            return -1;
    }
    return 0;
}

static PyObject *
k_mark_ground_change(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    world_t w;
    long cell;
    int r;
    if (check_args("mark_ground_change", nargs, 2) < 0)
        return NULL;
    cell = PyLong_AsLong(args[1]);
    if ((cell == -1 && PyErr_Occurred()) || world_open(&w, args[0]) < 0)
        return NULL;
    r = mark(&w, cell, NULL);
    world_close(&w);
    if (r < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* -- energy -------------------------------------------------------------- */

/* ``e0 - t_m - alpha * t_s``: the settled ledger (each int here is below
   2**53, so exact as a double). */
static PyObject *
settled_energy(double e0, double alpha, long tm, long ts)
{
    return PyFloat_FromDouble((e0 - (double)tm) - alpha * (double)ts);
}

static PyObject *
k_settled_energy(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    double e0, alpha;
    long tm, ts;
    if (check_args("settled_energy", nargs, 4) < 0
        || ((e0 = PyFloat_AsDouble(args[0])) == -1.0 && PyErr_Occurred())
        || ((tm = PyLong_AsLong(args[1])) == -1 && PyErr_Occurred())
        || ((alpha = PyFloat_AsDouble(args[2])) == -1.0 && PyErr_Occurred())
        || ((ts = PyLong_AsLong(args[3])) == -1 && PyErr_Occurred()))
        return NULL;
    return settled_energy(e0, alpha, tm, ts);
}

/* -- events -------------------------------------------------------------- */

/* Append ``Event(t, agent, action, src, dst, s1, s2, energy)`` to
   ``batch``, a list, or to nothing when it is NULL. */
static int
emit(PyObject *batch, PyObject *const *fields)
{
    PyObject *ev;
    int i, r;
    if (batch == NULL)
        return 0;
    if ((ev = EventType->tp_alloc(EventType, 8)) == NULL)
        return -1;
    for (i = 0; i < 8; i++) {
        Py_INCREF(fields[i]);
        PyTuple_SET_ITEM(ev, i, fields[i]);
    }
    /* Ints, a str and a float cannot form a cycle: keep the log out of
       the collector's walks. */
    PyObject_GC_UnTrack(ev);
    r = PyList_Append(batch, ev);
    Py_DECREF(ev);
    return r;
}

static PyObject *
k_log_event(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *fields[8] = {NULL}, *a;
    int r = -1;
    if (check_args("log_event", nargs, 6) < 0 || check_bound() < 0)
        return NULL;
    if (args[0] == Py_None)
        Py_RETURN_NONE;
    if (!PyList_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError, "the event batch must be a list or None");
        return NULL;
    }
    a = args[2];
    fields[0] = args[1], fields[2] = args[3], fields[3] = args[4], fields[4] = args[5];
    if ((fields[1] = rget(a, F_ID)) != NULL && (fields[5] = rget(a, F_S1)) != NULL
        && (fields[6] = rget(a, F_S2)) != NULL && (fields[7] = rget(a, F_ENERGY)) != NULL)
        r = emit(args[0], fields);
    Py_XDECREF(fields[1]);
    Py_XDECREF(fields[5]);
    Py_XDECREF(fields[6]);
    Py_XDECREF(fields[7]);
    if (r < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* -- the wake loop ------------------------------------------------------- */

typedef struct {
    world_t *w;
    PyObject *t, *sense, *mobile_decide, *settled_decide, *apply_mobile;
    order_t order;
    long t_l;
    int mobile_r, settled_r;  /* the own rule of the mode, or -1: call Python */
} wake_t;

/* The seams called through Python: ``sense(sim, a)``, then ``decide(a,
   xi, p, last)``; a new reference to the decision. */
static PyObject *
call_seams(wake_t *k, PyObject *a, PyObject *decide, PyObject *last)
{
    PyObject *args[4] = {k->w->sim, a}, *xi, *r;
    if ((xi = PyObject_Vectorcall(k->sense, args, 2, NULL)) == NULL)
        return NULL;
    args[0] = a, args[1] = xi, args[2] = k->w->p, args[3] = last;
    r = PyObject_Vectorcall(decide, args, 4, NULL);
    Py_DECREF(xi);
    return r;
}

/* The outcome of a mobile wake: the own rule on slots gathered off the
   layers, or the seams' ``Action`` decoded. */
static int
decide_mobile(wake_t *k, PyObject *a, act_t *out)
{
    world_t *w = k->w;
    slot_t sl[10];
    PyObject *action;
    long kind, dir, s2;
    int r;
    if (k->mobile_r >= 0)
        return gather(w->neighbors, w->ground, w->air, a, MODE_MOBILE, sl) < 0
                   ? -1 : mobile_rule(k->mobile_r, &w->ctx, a, sl, out);
    if ((action = call_seams(k, a, k->mobile_decide, w->draw)) == NULL)
        return -1;
    r = attr_long(action, N_KIND, &kind) < 0 || attr_long(action, N_DIRECTION, &dir) < 0
        || attr_long(action, F_S2, &s2) < 0;
    Py_DECREF(action);
    return r ? -1 : act(out, kind, dir, s2);
}

/* The sub-state a settled wake projects next: the own rule on slots
   gathered off ``ground``, or the seams' ``s1`` decoded. */
static int
decide_settled(wake_t *k, PyObject *a, long mode, long *out)
{
    world_t *w = k->w;
    slot_t sl[10];
    PyObject *s1;
    if (k->settled_r >= 0)
        return gather(w->neighbors, w->ground, w->air, a, mode, sl) < 0
                   ? -1 : settled_rule(k->settled_r, &w->ctx, a, sl, w->approach1, out);
    if ((s1 = call_seams(k, a, k->settled_decide, w->approach)) == NULL)
        return -1;
    *out = PyLong_AsLong(s1);
    Py_DECREF(s1);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
wake_mobile(wake_t *k, PyObject *a)
{
    world_t *w = k->w;
    act_t out;
    PyObject *s2 = NULL, *src = NULL, *nb = NULL, *dst = NULL;
    PyObject *s1 = NULL, *energy = NULL, *id = NULL;
    long src_l, dst_l, tm;
    int r = -1, occupied;

    if (decide_mobile(k, a, &out) < 0)
        return -1;
    if (out.kind == A_MOVE) {  /* the common case, inlined */
        if ((s2 = PyLong_FromLong(out.s2)) == NULL || (src = rget(a, F_POS)) == NULL)
            goto done;
        src_l = PyLong_AsLong(src);
        if ((src_l == -1 && PyErr_Occurred()) || (nb = tuple_item(w->neighbors, src_l)) == NULL
            || (dst = tuple_item(nb, out.dir - 1)) == NULL)
            goto done;
        dst_l = PyLong_AsLong(dst);
        if (dst_l == -1 && PyErr_Occurred())
            goto done;
        occupied = dst_l < 0;
        if (!occupied) {
            PyObject *v = list_item(w->air, dst_l);
            if (v == NULL)
                goto done;
            occupied = v != Py_None;
        }
        if (occupied) {
            if ((id = rget(a, F_ID)) != NULL)
                PyErr_Format(InvariantError, "agent %S moved into an occupied or wall cell", id);
            goto done;
        }
        if (list_set(w->air, src_l, Py_None) < 0 || list_set(w->air, dst_l, a) < 0
            || rset(a, F_POS, dst) < 0 || rset(a, F_S2, s2) < 0)
            goto done;
        if (w->batch != NULL) {
            PyObject *fields[8];
            if ((id = rget(a, F_ID)) == NULL || (s1 = rget(a, F_S1)) == NULL
                || (energy = rget(a, F_ENERGY)) == NULL)
                goto done;
            fields[0] = k->t, fields[1] = id, fields[2] = STR_MOVE, fields[3] = src;
            fields[4] = dst, fields[5] = s1, fields[6] = s2, fields[7] = energy;
            if (emit(w->batch, fields) < 0)
                goto done;
        }
    }
    else if (out.kind != A_STAY) {  /* shut down or settle */
        PyObject *args[3], *res;
        if ((args[1] = make_action(&out)) == NULL)
            goto done;
        args[0] = a, args[2] = k->t;
        res = PyObject_Vectorcall(k->apply_mobile, args, 3, NULL);
        Py_DECREF(args[1]);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
        if (out.kind != A_SHUTDOWN  /* a settler changed its cell's ground */
            && (rget_long(a, F_POS, &dst_l) < 0 || mark(w, dst_l, &k->order) < 0))
            goto done;
    }
    /* The movement tick of this step, whatever the agent did; a mobile
       has no settled steps. */
    if (rget_long(a, F_TM, &tm) < 0 || rset_new(a, F_TM, PyLong_FromLong(tm + 1)) < 0
        || rset_new(a, F_ENERGY, PyFloat_FromDouble(w->e0 - (double)(tm + 1))) < 0)
        goto done;
    r = 0;
done:
    Py_XDECREF(s2);
    Py_XDECREF(src);
    Py_XDECREF(nb);
    Py_XDECREF(dst);
    Py_XDECREF(s1);
    Py_XDECREF(energy);
    Py_XDECREF(id);
    return r;
}

/* A settled wake ends with the agent out of ``awake``; a transition's
   marks put it back unless it reported low. */
static int
wake_settled(wake_t *k, PyObject *a, long mode)
{
    world_t *w = k->w;
    slot_t sl[10];
    PyObject *new_s1 = NULL, *id = NULL, *pos = NULL, *s2 = NULL, *energy = NULL;
    long old_l, new_l, pos_l, tm, ss;
    int r = -1, d;

    if (mode == MODE_SETTLED  /* materialize the lazily tracked energy */
        && (rget_long(a, F_TM, &tm) < 0 || rget_long(a, F_SETTLE, &ss) < 0
            || rset_new(a, F_ENERGY, settled_energy(w->e0, w->alpha, tm, k->t_l - 1 - ss)) < 0))
        return -1;
    if (decide_settled(k, a, mode, &new_l) < 0 || (id = rget(a, F_ID)) == NULL
        || PySet_Discard(w->awake, id) < 0 || rget_long(a, F_S1, &old_l) < 0)
        goto done;
    if (new_l != old_l) {
        if (old_l == S_CLOSED_BEACON && new_l == S_BEACON) {
            PyErr_Format(InvariantError, "agent %S reopened a closed beacon", id);
            goto done;
        }
        if (new_l == S_CLOSED_BEACON) {
            if (gather(w->neighbors, w->ground, w->air, a, mode, sl) < 0)
                goto done;
            for (d = 1; d <= 4; d++)
                if (sl[d].kind == K_EMPTY) {
                    PyErr_Format(InvariantError,
                                 "agent %S closed with an empty neighbor in sight", id);
                    goto done;
                }
        }
        if ((new_s1 = PyLong_FromLong(new_l)) == NULL || rset(a, F_S1, new_s1) < 0
            || (pos = rget(a, F_POS)) == NULL)
            goto done;
        if ((pos_l = PyLong_AsLong(pos)) == -1 && PyErr_Occurred())
            goto done;
        if (w->batch != NULL) {
            PyObject *fields[8];
            if ((s2 = rget(a, F_S2)) == NULL || (energy = rget(a, F_ENERGY)) == NULL)
                goto done;
            fields[0] = k->t, fields[1] = id, fields[2] = STR_TRANSITION, fields[3] = pos;
            fields[4] = pos, fields[5] = new_s1, fields[6] = s2, fields[7] = energy;
            if (emit(w->batch, fields) < 0)
                goto done;
        }
        if (mark(w, pos_l, &k->order) < 0)
            goto done;
    }
    r = 0;
done:
    Py_XDECREF(new_s1);
    Py_XDECREF(id);
    Py_XDECREF(pos);
    Py_XDECREF(s2);
    Py_XDECREF(energy);
    return r;
}

static int
rule_index(PyObject *f, PyObject *const *own)
{
    int r;
    for (r = 0; r < NR; r++)
        if (f == own[r])
            return r;
    return -1;
}

static int
cmp_key(const void *x, const void *y)
{
    uint64_t a = *(const uint64_t *)x, b = *(const uint64_t *)y;
    return (a > b) - (a < b);
}

/* This step's wake order: the agents in ``awake``, keyed and sorted; a
   random key is one draw, so random keys are drawn in id order.
   ``order_free`` after, also on failure. */
static int
wake_order(world_t *w, order_t *o)
{
    PyObject *it, *item;
    Py_ssize_t i;
    long aid;

    memset(o, 0, sizeof(*o));
    if (!PyList_Check(w->agents) || !PySet_Check(w->awake)) {
        PyErr_SetString(PyExc_TypeError, "agents must be a list and awake a set");
        return -1;
    }
    o->n_ids = PyList_GET_SIZE(w->agents);
    o->keys = PyMem_Malloc(sizeof(uint64_t) * (size_t)(o->n_ids ? o->n_ids : 1));
    o->scheduled = PyMem_Calloc((size_t)o->n_ids + 1, 1);
    if (o->keys == NULL || o->scheduled == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if ((it = PyObject_GetIter(w->awake)) == NULL)
        return -1;
    /* ``admit`` takes each id once and only if it names an agent, so the
       ids fit ``keys``. */
    while ((item = PyIter_Next(it)) != NULL) {
        aid = PyLong_AsLong(item);
        Py_DECREF(item);
        if ((aid == -1 && PyErr_Occurred()) || admit(o, aid) < 0)
            break;
        o->keys[o->n++] = (uint64_t)aid;
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;
    if (!w->adversarial)
        qsort(o->keys, (size_t)o->n, sizeof(uint64_t), cmp_key);
    for (i = 0; i < o->n; i++)
        if (wake_key(w, (long)o->keys[i], &o->keys[i]) < 0)
            return -1;
    qsort(o->keys, (size_t)o->n, sizeof(uint64_t), cmp_key);
    return 0;
}

static PyObject *
k_wake(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    world_t w;
    wake_t k;
    int r, own_sensing;

    if (check_args("wake", nargs, 6) < 0 || world_open(&w, args[0]) < 0)
        return NULL;
    memset(&k, 0, sizeof(k));
    k.w = &w;
    k.t = args[1];
    k.sense = args[2];
    k.mobile_decide = args[3];
    k.settled_decide = args[4];
    k.apply_mobile = args[5];
    /* A mode's wakes are compiled only when sense and its rule both are. */
    own_sensing = k.sense == own_sense;
    k.mobile_r = own_sensing ? rule_index(k.mobile_decide, own_mobile) : -1;
    k.settled_r = own_sensing ? rule_index(k.settled_decide, own_settled) : -1;
    k.t_l = PyLong_AsLong(k.t);
    r = (k.t_l == -1 && PyErr_Occurred()) ? -1 : wake_order(&w, &k.order);
    /* The order may grow behind the cursor's back: only after it. */
    while (r == 0 && k.order.cur < k.order.n) {
        uint64_t key = k.order.keys[k.order.cur++];
        PyObject *a = list_item(w.agents, (long)(key & ID_MASK) - 1);
        long mode;
        if (a == NULL) {
            r = -1;
            break;
        }
        Py_INCREF(a);
        r = rget_long(a, F_MODE, &mode);
        if (r == 0)
            r = mode == MODE_MOBILE ? wake_mobile(&k, a) : wake_settled(&k, a, mode);
        Py_DECREF(a);
    }
    order_free(&k.order);
    world_close(&w);
    if (r < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* -- the event-log formatter --------------------------------------------- */

typedef struct {
    char *buf;
    Py_ssize_t len, cap;
} sbuf;

/* Make room for ``n`` more bytes. */
static int
sb_reserve(sbuf *b, Py_ssize_t n)
{
    Py_ssize_t cap = b->cap ? b->cap : 4096;
    char *buf;
    if (b->len + n <= b->cap)
        return 0;
    while (cap < b->len + n)
        cap *= 2;
    if ((buf = PyMem_Realloc(b->buf, (size_t)cap)) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    b->buf = buf;
    b->cap = cap;
    return 0;
}

static int
sb_put(sbuf *b, const char *s, Py_ssize_t n)
{
    if (sb_reserve(b, n) < 0)
        return -1;
    memcpy(b->buf + b->len, s, (size_t)n);
    b->len += n;
    return 0;
}

/* Write the decimal digits of ``v`` at ``p``; returns the end. */
static char *
put_ll(char *p, long long v)
{
    char tmp[24], *q = tmp + sizeof(tmp);
    unsigned long long u = v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v;
    do
        *--q = (char)('0' + u % 10);
    while (u /= 10);
    if (v < 0)
        *--q = '-';
    memcpy(p, q, (size_t)(tmp + sizeof(tmp) - q));
    return p + (tmp + sizeof(tmp) - q);
}

/* One event-log line, ``t,agent,action,from,to,s1,s2,E``, no newline: a
   cell of ``-1`` prints as ``-``, ``s1`` by name and ``E`` as
   ``f"{E:g}"``.  An integral ``E`` below 1e6 prints as the integer (with
   the sign of a zero); anything else goes through
   ``PyOS_double_to_string``, which is what ``format`` calls. */
static int
format_line(sbuf *b, PyObject *ev)
{
    static const int ints[6] = {0, 1, 3, 4, 5, 6};
    long long v[8];
    PyObject *const *f;
    const char *action;
    Py_ssize_t alen;
    double e;
    char *p, *g;
    int i;
    if (!PyTuple_Check(ev) || PyTuple_GET_SIZE(ev) != 8) {
        PyErr_Format(PyExc_TypeError, "an event is a tuple of 8 fields, not %R", ev);
        return -1;
    }
    f = &PyTuple_GET_ITEM(ev, 0);
    for (i = 0; i < 6; i++) {
        if (!PyLong_CheckExact(f[ints[i]])) {
            PyErr_Format(PyExc_TypeError, "event field %d must be an int, not %.100s", ints[i],
                         Py_TYPE(f[ints[i]])->tp_name);
            return -1;
        }
        if ((v[ints[i]] = PyLong_AsLongLong(f[ints[i]])) == -1 && PyErr_Occurred())
            return -1;
    }
    if (v[5] < 0 || v[5] >= 4) {
        PyErr_Format(PyExc_ValueError, "an event's s1 is 0 to 3, not %lld", v[5]);
        return -1;
    }
    if (PyFloat_CheckExact(f[7]))
        e = PyFloat_AS_DOUBLE(f[7]);
    else if (PyLong_CheckExact(f[7])) {  /* int.__format__ with 'g' formats float(E) */
        if ((e = PyLong_AsDouble(f[7])) == -1.0 && PyErr_Occurred())
            return -1;
    }
    else {
        PyErr_Format(PyExc_TypeError, "an event's energy must be an int or a float, not %.100s",
                     Py_TYPE(f[7])->tp_name);
        return -1;
    }
    if (!PyUnicode_CheckExact(f[2])) {
        PyErr_Format(PyExc_TypeError, "an event's action must be a str, not %.100s",
                     Py_TYPE(f[2])->tp_name);
        return -1;
    }
    if ((action = PyUnicode_AsUTF8AndSize(f[2], &alen)) == NULL
        || sb_reserve(b, 5 * 24 + alen + 16 + 32) < 0)
        return -1;
    p = b->buf + b->len;
    p = put_ll(p, v[0]);
    *p++ = ',';
    p = put_ll(p, v[1]);
    *p++ = ',';
    memcpy(p, action, (size_t)alen);
    p += alen;
    for (i = 3; i < 5; i++) {
        *p++ = ',';
        if (v[i] < 0)
            *p++ = '-';
        else
            p = put_ll(p, v[i]);
    }
    *p++ = ',';
    memcpy(p, S1_TEXT[v[5]], strlen(S1_TEXT[v[5]]));
    p += strlen(S1_TEXT[v[5]]);
    *p++ = ',';
    p = put_ll(p, v[6]);
    *p++ = ',';
    if (e == floor(e) && fabs(e) < 1e6) {
        if (e == 0.0 && signbit(e))
            *p++ = '-';
        p = put_ll(p, (long long)e);
        b->len = p - b->buf;
        return 0;
    }
    b->len = p - b->buf;
    if ((g = PyOS_double_to_string(e, 'g', 6, 0, NULL)) == NULL)
        return -1;
    i = sb_put(b, g, (Py_ssize_t)strlen(g));
    PyMem_Free(g);
    return i;
}

static PyObject *
sb_finish(sbuf *b, int ok)
{
    PyObject *r = ok ? PyUnicode_DecodeUTF8(b->buf ? b->buf : "", b->len, NULL) : NULL;
    PyMem_Free(b->buf);
    return r;
}

static PyObject *
k_format_event(PyObject *Py_UNUSED(m), PyObject *ev)
{
    sbuf b = {NULL, 0, 0};
    return sb_finish(&b, format_line(&b, ev) == 0);
}

static PyObject *
k_format_events(PyObject *Py_UNUSED(m), PyObject *events)
{
    sbuf b = {NULL, 0, 0};
    PyObject *fast;
    Py_ssize_t i, n;
    int ok = 1;
    if ((fast = PySequence_Fast(events, "events must be a sequence")) == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(fast);
    for (i = 0; ok && i < n; i++)
        ok = format_line(&b, PySequence_Fast_GET_ITEM(fast, i)) == 0 && sb_put(&b, "\n", 1) == 0;
    Py_DECREF(fast);
    return sb_finish(&b, ok);
}

/* -- the random stream --------------------------------------------------- */

/* ``uniform_stream(seed)`` is called with no arguments for each draw and
   returns the floats of NumPy's ``default_rng(seed).random()``, in
   order.  The seed's 32-bit words are mixed into a pool of four as
   NumPy's ``SeedSequence`` mixes them, the pool generates the four
   64-bit words that seed a PCG64 generator (XSL-RR 128/64) as NumPy's
   ``pcg64_set_seed`` does, and a draw is the top 53 bits of one output
   times 2**-53. */

__extension__ typedef unsigned __int128 u128;

#define POOL 4
#define HASH_INIT_A 0x43b0d7e5u
#define HASH_MULT_A 0x931e8875u
#define HASH_INIT_B 0x8b51f9ddu
#define HASH_MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u
#define PCG_MULT ((u128)0x2360ed051fc65da4u << 64 | 0x4385df649fccf645u)

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    u128 state, inc;
} stream_t;

static uint32_t
hashmix(uint32_t v, uint32_t *h)
{
    v ^= *h;
    *h *= HASH_MULT_A;
    v *= *h;
    return v ^ v >> 16;
}

static uint32_t
mix(uint32_t x, uint32_t y)
{
    uint32_t r = MIX_MULT_L * x - MIX_MULT_R * y;
    return r ^ r >> 16;
}

/* The 32-bit words of the int ``seed >= 0``, least significant first,
   one word for 0, in a ``PyMem`` block; ``*n`` gets their count. */
static uint32_t *
seed_words(PyObject *seed, Py_ssize_t *n)
{
    PyObject *v, *shift = NULL, *next;
    uint32_t *words = NULL, *grown;
    Py_ssize_t cap = 0;
    int r;
    *n = 0;
    if ((v = PyNumber_Index(seed)) == NULL)
        return NULL;
    if ((r = PyObject_RichCompareBool(v, ZERO, Py_LT)) != 0) {
        if (r > 0)
            PyErr_Format(PyExc_ValueError, "a seed must be >= 0, got %S", v);
        goto error;
    }
    if ((shift = PyLong_FromLong(32)) == NULL)
        goto error;
    do {
        if (*n == cap) {
            cap = cap ? 2 * cap : POOL;
            if ((grown = PyMem_Realloc(words, (size_t)cap * sizeof(*words))) == NULL) {
                PyErr_NoMemory();
                goto error;
            }
            words = grown;
        }
        words[(*n)++] = (uint32_t)PyLong_AsUnsignedLongLongMask(v);
        if ((next = PyNumber_Rshift(v, shift)) == NULL)
            goto error;
        Py_SETREF(v, next);
    } while ((r = PyObject_IsTrue(v)) > 0);
    if (r < 0)
        goto error;
    Py_DECREF(v);
    Py_DECREF(shift);
    return words;
error:
    Py_DECREF(v);
    Py_XDECREF(shift);
    PyMem_Free(words);
    return NULL;
}

static void
pcg_step(stream_t *s)
{
    s->state = s->state * PCG_MULT + s->inc;
}

/* Seed ``s`` from the ``n`` words of entropy ``e``. */
static void
stream_seed(stream_t *s, const uint32_t *e, Py_ssize_t n)
{
    uint32_t pool[POOL], h = HASH_INIT_A, x;
    uint64_t val[POOL];
    Py_ssize_t i, j;
    /* SeedSequence: the first words into the pool, each pool word mixed
       into the others, then each further word into every pool word. */
    for (i = 0; i < POOL; i++)
        pool[i] = hashmix(i < n ? e[i] : 0, &h);
    for (i = 0; i < POOL; i++)
        for (j = 0; j < POOL; j++)
            if (i != j)
                pool[j] = mix(pool[j], hashmix(pool[i], &h));
    for (i = POOL; i < n; i++)
        for (j = 0; j < POOL; j++)
            pool[j] = mix(pool[j], hashmix(e[i], &h));
    /* ``generate_state(4, uint64)``: eight 32-bit words cycling over
       the pool, paired low word first. */
    memset(val, 0, sizeof(val));
    h = HASH_INIT_B;
    for (i = 0; i < 2 * POOL; i++) {
        x = pool[i % POOL] ^ h;
        h *= HASH_MULT_B;
        x *= h;
        val[i / 2] |= (uint64_t)(x ^ x >> 16) << (i % 2 * 32);
    }
    /* ``pcg64_set_seed``: the state from ``val[0:2]``, the increment
       from ``val[2:4]``, high word first. */
    s->inc = ((u128)val[2] << 64 | val[3]) << 1 | 1;
    s->state = 0;
    pcg_step(s);
    s->state += (u128)val[0] << 64 | val[1];
    pcg_step(s);
}

static PyObject *
stream_draw(PyObject *self, PyObject *const *Py_UNUSED(args), size_t nargsf, PyObject *kwnames)
{
    stream_t *s = (stream_t *)self;
    uint64_t x;
    unsigned rot;
    if (PyVectorcall_NARGS(nargsf) != 0 || (kwnames != NULL && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError, "a uniform_stream draw takes no arguments");
        return NULL;
    }
    pcg_step(s);
    rot = (unsigned)(s->state >> 122);
    x = (uint64_t)(s->state >> 64) ^ (uint64_t)s->state;
    x = x >> rot | x << (-rot & 63);
    return PyFloat_FromDouble((double)(x >> 11) * (1.0 / 9007199254740992.0));
}

static PyObject *
stream_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"seed", NULL};
    PyObject *seed;
    stream_t *s;
    uint32_t *words;
    Py_ssize_t n;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:uniform_stream", kwlist, &seed)
        || (words = seed_words(seed, &n)) == NULL)
        return NULL;
    if ((s = (stream_t *)type->tp_alloc(type, 0)) != NULL) {
        s->vectorcall = stream_draw;
        stream_seed(s, words, n);
    }
    PyMem_Free(words);
    return (PyObject *)s;
}

static PyTypeObject StreamType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "gridswarm._kernel.uniform_stream",
    .tp_basicsize = sizeof(stream_t),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "uniform_stream(seed)\n--\n\n"
              "A draw callable: each call returns the next float in [0, 1) of\n"
              "NumPy's ``default_rng(seed).random()``.  ``seed`` is an int >= 0.",
    .tp_new = stream_new,
    .tp_call = PyVectorcall_Call,
    .tp_vectorcall_offset = offsetof(stream_t, vectorcall),
};

/* -- binding ------------------------------------------------------------- */

static PyObject *
k_bind(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *record, *event;
    Py_ssize_t offs[NF];
    int f;
    if (check_args("bind", nargs, 4) < 0)
        return NULL;
    record = args[0], event = args[1];
    if (!PyType_Check(record) || !PyType_Check(event)
        || !PyType_IsSubtype((PyTypeObject *)event, &PyTuple_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "bind(AgentRecord, Event, InvariantError, _action): bad argument types");
        return NULL;
    }
    /* Records are read and written straight through their slots. */
    for (f = 0; f < NF; f++) {
        PyObject *d = PyObject_GetAttr(record, NAME[f]);
        int slot = d != NULL && Py_IS_TYPE(d, &PyMemberDescr_Type)
                   && ((PyMemberDescrObject *)d)->d_member->type == T_OBJECT_EX;
        if (slot)
            offs[f] = ((PyMemberDescrObject *)d)->d_member->offset;
        Py_XDECREF(d);
        if (d == NULL && !PyErr_ExceptionMatches(PyExc_AttributeError))
            return NULL;
        if (!slot) {
            PyErr_Format(PyExc_TypeError, "%.100s.%s is not a slot",
                         ((PyTypeObject *)record)->tp_name, NAMES[f]);
            return NULL;
        }
    }
    Py_INCREF(record);
    Py_XSETREF(Record, (PyTypeObject *)record);
    memcpy(rec_off, offs, sizeof(offs));
    Py_INCREF(event);
    Py_XSETREF(EventType, (PyTypeObject *)event);
    Py_INCREF(args[2]);
    Py_XSETREF(InvariantError, args[2]);
    Py_INCREF(args[3]);
    Py_XSETREF(action_fn, args[3]);
    Py_RETURN_NONE;
}

#define FAST(name, doc) {#name, (PyCFunction)(void (*)(void))k_##name, METH_FASTCALL, doc}
static PyMethodDef methods[] = {
    FAST(sense,
         "sense(world, a)\n--\n\n"
         "The 10-slot sensed neighborhood of agent ``a``.\n\n"
         "Slots 0-4 are the ground content of the own cell and its N, E, S, W\n"
         "neighbors; slots 5-9 the air content of the same cells.  Each slot\n"
         "holds ``SENSE_WALL`` (wall or outside), ``SENSE_EMPTY`` or the\n"
         "observed ``(s1, s2)`` of an agent.  A mobile agent senses both layers;\n"
         "a settled one only the ground (its air slots read empty); any other\n"
         "mode raises ``ValueError``.\n\n"
         "``world`` exposes ``region`` and the occupant layers ``ground`` and\n"
         "``air``: each cell holds its occupant's ``AgentRecord`` or ``None``,\n"
         "and the neighbor index ``-1`` of a wall or the outside reads as a wall.\n"
         "Each ``(s1, s2)`` is a new tuple of the occupant's own ``s1`` and ``s2``."),
    FAST(mobile_decide_sllg, "mobile_decide_sllg(a, xi, p, draw)\n--\n\nThe sllg-ea mobile rule."),
    FAST(mobile_decide_slug, "mobile_decide_slug(a, xi, p, draw)\n--\n\nThe slug-ea mobile rule."),
    FAST(mobile_decide_sltt, "mobile_decide_sltt(a, xi, p, draw)\n--\n\nThe sltt-ea mobile rule."),
    FAST(settled_decide_sllg,
         "settled_decide_sllg(a, xi, p, approach)\n--\n\nThe sllg-ea settled rule."),
    FAST(settled_decide_slug,
         "settled_decide_slug(a, xi, p, approach)\n--\n\nThe slug-ea settled rule."),
    FAST(settled_decide_sltt,
         "settled_decide_sltt(a, xi, p, approach)\n--\n\nThe sltt-ea settled rule."),
    FAST(wake, "wake(sim, t, sense, mobile_decide, settled_decide, apply_mobile)\n--\n\n"
               "The body of ``Simulation._wake``."),
    FAST(mark_ground_change,
         "mark_ground_change(sim, cell)\n--\n\n"
         "The body of ``Simulation._mark_ground_change``: put a cell's settled\n"
         "occupant and settled neighbors that are not low-energy into ``awake``,\n"
         "between steps."),
    FAST(settled_energy, "settled_energy(e0, t_m, alpha, t_s)\n--\n\n"
                         "The settled ledger ``e0 - t_m - alpha * t_s``."),
    {"format_event", (PyCFunction)k_format_event, METH_O,
     "format_event(ev)\n--\n\nThe event-log line of one event, without a newline."},
    {"format_events", (PyCFunction)k_format_events, METH_O,
     "format_events(events)\n--\n\nThe event-log lines of a batch, each ending in a newline."},
    FAST(log_event, "log_event(batch, t, a, action, src, dst)\n--\n\n"
                    "Append ``Event(t, a.id, action, src, dst, a.s1, a.s2, a.energy)``\n"
                    "to the list ``batch``, untracked by the collector; ``None`` logs nothing."),
    FAST(bind, "bind(AgentRecord, Event, InvariantError, _action)\n--\n\n"
               "Hand the kernel the Python classes and tables it works with."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel", "The per-wake hot path of gridswarm, compiled.", -1,
    methods, NULL, NULL, NULL, NULL,
};

static int
add_own(PyObject *m, const char *name, PyObject **slot)
{
    return (*slot = PyObject_GetAttrString(m, name)) == NULL ? -1 : 0;
}

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *m = PyModule_Create(&module);
    int i;
    if (m == NULL)
        return NULL;
    for (i = 0; i < N_COUNT; i++)
        if ((NAME[i] = PyUnicode_InternFromString(NAMES[i])) == NULL)
            goto error;
    if ((EMPTY = PyLong_FromLong(0)) == NULL || (WALL = PyLong_FromLong(-1)) == NULL
        || (ZERO = PyLong_FromLong(0)) == NULL || (ONE = PyLong_FromLong(1)) == NULL
        || (STR_MOVE = PyUnicode_InternFromString("move")) == NULL
        || (STR_TRANSITION = PyUnicode_InternFromString("transition")) == NULL
        || add_own(m, "sense", &own_sense) < 0
        || add_own(m, "mobile_decide_sllg", &own_mobile[R_SLLG]) < 0
        || add_own(m, "mobile_decide_slug", &own_mobile[R_SLUG]) < 0
        || add_own(m, "mobile_decide_sltt", &own_mobile[R_SLTT]) < 0
        || add_own(m, "settled_decide_sllg", &own_settled[R_SLLG]) < 0
        || add_own(m, "settled_decide_slug", &own_settled[R_SLUG]) < 0
        || add_own(m, "settled_decide_sltt", &own_settled[R_SLTT]) < 0
        || PyModule_AddIntConstant(m, "MODE_MOBILE", MODE_MOBILE) < 0
        || PyModule_AddIntConstant(m, "MODE_SETTLED", MODE_SETTLED) < 0
        || PyModule_AddIntConstant(m, "S_MOBILE", S_MOBILE) < 0
        || PyModule_AddIntConstant(m, "S_BEACON", S_BEACON) < 0
        || PyModule_AddIntConstant(m, "S_CLOSED_BEACON", S_CLOSED_BEACON) < 0
        || PyModule_AddIntConstant(m, "S_LOW_ENERGY", S_LOW_ENERGY) < 0
        || PyModule_AddIntConstant(m, "A_STAY", A_STAY) < 0
        || PyModule_AddIntConstant(m, "A_MOVE", A_MOVE) < 0
        || PyModule_AddIntConstant(m, "A_SETTLE_HERE", A_SETTLE_HERE) < 0
        || PyModule_AddIntConstant(m, "A_SETTLE_AT", A_SETTLE_AT) < 0
        || PyModule_AddIntConstant(m, "A_SHUTDOWN", A_SHUTDOWN) < 0
        || PyModule_AddIntConstant(m, "ID_BITS", ID_BITS) < 0
        || PyModule_AddType(m, &StreamType) < 0)
        goto error;
    return m;
error:
    Py_DECREF(m);
    return NULL;
}
