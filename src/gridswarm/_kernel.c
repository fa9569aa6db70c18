/* The simulation step of gridswarm, compiled.

   This module holds all of ``Simulation.step``: the wake loop (wake
   keys, the wake order, moves, settling, shutdown and the settled
   wakes), the entry attempt, the settled-energy events and the close of
   the step.  With it come sensing, the six decide rules, the marking of
   settled agents whose ground neighborhood changed, the event log (one
   line writer, the streamed lines and every logged ``Event``), and the
   run's random stream: PCG64 seeded as NumPy's ``SeedSequence`` seeds it, so
   it draws the same floats as NumPy's ``default_rng(seed).random()``.

   A run's state is a ``world``, built once per run by
   ``Simulation.__init__`` after ``validate``.  It holds the region's
   neighbors and distances as C int arrays, the parameters as C scalars
   (``p.d_max`` is read once, through its property, and ``dt`` as an
   int), the settled count and the heap of settled-energy events as a C
   array.
   It refers to the run's own ``agents``, occupant layers ``ground`` and
   ``air``, wake set ``awake``, series ``ac_series`` and event sink: the
   Simulation's objects, not copies, so agents placed by hand take part.
   It refers to no ``Simulation``, so a finished run is freed without the
   cyclic collector.

   ``step(world, t, draw, sense, mobile_decide, settled_decide)`` runs
   step ``t``: the wakes, the entry attempt every ``dt`` steps, the
   settled-energy events due by ``t`` (threshold crossings and failures)
   and the close (the step's ``ac_series`` entry, the hand-off of its
   lines to ``on_events``, and termination read off the entry cell); it
   returns the termination the entry cell reads, or ``None``.  A step
   keeps its seams and its wake order in the world, so a seam that
   steps the same world again raises ``RuntimeError``.
   ``world.finish(t)`` sets each settled agent's energy as of the end
   of step ``t``.

   It defines ``AgentRecord``, the state of one agent: C values only, so
   a movement tick, a settle or a transition is a plain C store.
   The kernel accepts the engine's own types and no others: agents are
   ``AgentRecord``s, checked once as each arrives from Python; the
   occupant layers are lists whose cells hold an ``AgentRecord`` or
   ``None``; ``awake`` is a set of the records, each the run's agent of
   its id; a cell index outside the region raises ``IndexError``; an
   ``Event`` has int fields, a str action and an int or float energy.
   A sensed neighborhood handed to a rule from Python holds in each slot
   ``SENSE_EMPTY``, ``SENSE_WALL`` or an ``(s1, s2)`` tuple of ints, and
   a mobile rule called through Python returns an ``Action``, a tuple
   ``(kind, direction, s2)``.  Anything else raises ``TypeError``.  The
   energy parameters and every energy are doubles, so every trajectory
   is the one the Python definitions give, draw for draw.  A move or a
   settle in a direction outside 1-4 raises ``InvariantError``.

   The wake order of a step is built from ``awake``: a sorted array of
   keys read by a cursor and a mark per agent id, both sized at the
   agents of the step's start (each agent wakes at most once a step, and
   none enters during the wakes).  The kernel keeps ``awake`` up to date
   at a ground change, at the end of a settled wake, at a shutdown and at
   the energy events; a ground change during the wakes inserts a settled
   neighbor whose key lies ahead, so it wakes into the change.

   A wake takes one of two paths, chosen once per step for each mode.
   When ``sense`` and the mode's decide rule are both this module's own
   functions, the wake gathers the sensed slots straight off the
   occupants' records and runs the rule on them, building no tuple and no
   ``Action``.  Otherwise (a wrapper that times or checks them) it calls
   ``sense(world, a)`` and the rule through Python with the usual
   arguments and decodes the result into C values at the call: an
   ``Action`` by position into its kind, direction and ``s2``, a settled
   ``s1`` into a long.  After that every wake runs the same code.
   ``draw`` is called through Python too unless it is this module's own
   stream.

   A run logs its events in one of two ways.  With ``log_events=True``
   each is an ``Event`` tuple appended to ``events`` and left untracked
   by the cyclic collector.  A run that streams to ``on_events`` builds
   no ``Event``: each line is written straight from the record's C
   fields into the world's text buffer, and the close hands the step's
   lines to ``on_events`` as one ``bytes``.  Both logs, and
   ``Event.format``, print through one line writer, so their bytes agree.

   ``_build.py`` compiles it on first import.  ``engine.py`` hands it
   the Python classes it needs through ``bind``. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Shared with agents.py and rules.py; the tests check they agree. */
enum { MODE_MOBILE = 0, MODE_SETTLED = 1, MODE_SHUTDOWN = 2, MODE_FAILED = 3 };
enum { S_MOBILE = 0, S_BEACON = 1, S_CLOSED_BEACON = 2, S_LOW_ENERGY = 3 };
enum { A_STAY = 0, A_MOVE = 1, A_SETTLE_HERE = 2, A_SETTLE_AT = 3, A_SHUTDOWN = 4 };
static const char *const MODE_TEXT[] = {"mobile", "settled", "shutdown", "failed"};
static const char *const S1_TEXT[] = {"mobile", "beacon", "closed_beacon", "low_energy"};

/* Wake keys pack the sub-step above the agent id. */
#define ID_BITS 32
#define ID_MASK ((UINT64_C(1) << ID_BITS) - 1)

/* Attribute names. */
enum {
    N_NEIGHBORS, N_DISTANCES, N_WIDTH, N_HEIGHT, N_ENTRY,
    N_E0, N_ALPHA, N_ECRIT_MOBILE, N_ECRIT_SETTLED,
    N_APPROACH, N_M, N_DT, N_D_MAX, N_SCHEDULER, N_COUNT
};
static const char *const NAMES[N_COUNT] = {
    "neighbors", "distances", "width", "height", "entry",
    "e0", "alpha", "ecrit_mobile", "ecrit_settled",
    "approach", "m", "dt", "d_max", "scheduler",
};
static PyObject *NAME[N_COUNT];

static PyObject *EMPTY, *WALL;  /* SENSE_EMPTY and SENSE_WALL: the ints 0, -1 */
static PyObject *ZERO, *ONE;
/* Event actions and terminations. */
enum { E_ENTER, E_MOVE, E_SETTLE, E_SHUTDOWN, E_TRANSITION, E_FAIL, E_CLOSED, E_LOW_ENERGY, NS };
static const char *const STR_TEXT[NS] = {
    "enter", "move", "settle", "shutdown", "transition", "fail", "closed", "low_energy",
};
static PyObject *STR[NS];

/* Set by ``bind``. */
static PyTypeObject *EventType;
static PyObject *InvariantError, *action_fn;

/* This module's own sense and rules, told apart from wrappers by identity. */
enum { R_SLLG, R_SLUG, R_SLTT, NR };
static PyObject *own_sense, *own_mobile[NR], *own_settled[NR];

static int
long_of(PyObject *v, long *out)
{
    *out = PyLong_AsLong(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
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

/* -- the agent record ---------------------------------------------------- */

/* ``AgentRecord``: the state of one agent, all C values.  It holds no
   object, so it stays out of the cyclic collector, and it hashes by
   identity, so ``awake`` holds the records themselves. */
typedef struct {
    PyObject_HEAD
    long id, pos;  /* ``pos`` is a linear cell index */
    long mode, s1, s2;
    double energy;
    long t_m;          /* movement ticks, the entry's included */
    long settle_step;  /* step during which the agent settled */
} rec_t;

static PyTypeObject RecordType;

/* ``o`` as a record; ``TypeError`` if it is none.  Every object that
   arrives from Python as a record passes here once. */
static rec_t *
as_record(PyObject *o)
{
    if (Py_IS_TYPE(o, &RecordType))
        return (rec_t *)o;
    PyErr_Format(PyExc_TypeError, "expected an AgentRecord, got %.100s", Py_TYPE(o)->tp_name);
    return NULL;
}

/* The fields, each of one type, by their offset: a long or a double.  A
   setter that fails leaves the field as it was. */
#define FIELD(a, off, type) ((type *)((char *)(a) + (size_t)(off)))

static int
undeletable(PyObject *v)
{
    if (v != NULL)
        return 0;
    PyErr_SetString(PyExc_TypeError, "an AgentRecord's fields cannot be deleted");
    return -1;
}

static PyObject *
get_long(PyObject *a, void *off)
{
    return PyLong_FromLong(*FIELD(a, off, long));
}

static int
set_long(PyObject *a, PyObject *v, void *off)
{
    long x;
    if (undeletable(v) < 0 || long_of(v, &x) < 0)
        return -1;
    *FIELD(a, off, long) = x;
    return 0;
}

static PyObject *
get_double(PyObject *a, void *off)
{
    return PyFloat_FromDouble(*FIELD(a, off, double));
}

static int
set_double(PyObject *a, PyObject *v, void *off)
{
    double x;
    if (undeletable(v) < 0 || ((x = PyFloat_AsDouble(v)) == -1.0 && PyErr_Occurred()))
        return -1;
    *FIELD(a, off, double) = x;
    return 0;
}

#define REC_FIELD(name, kind, doc) \
    {#name, get_##kind, set_##kind, doc, (void *)offsetof(rec_t, name)}
static PyGetSetDef rec_fields[] = {
    REC_FIELD(id, long, "The agent's id, from 1 in order of entry."),
    REC_FIELD(mode, long, "The lifecycle mode, ``MODE_*``."),
    REC_FIELD(s1, long, "The projected sub-state, ``S_*``."),
    REC_FIELD(s2, long, "The payload: a counter or a direction code."),
    REC_FIELD(pos, long, "The agent's cell, a linear index."),
    REC_FIELD(energy, double, "The energy left."),
    REC_FIELD(t_m, long, "Movement ticks, the entry's included."),
    REC_FIELD(settle_step, long, "The step during which the agent settled, or -1."),
    {NULL, NULL, NULL, NULL, NULL},
};

/* The constructor sets each field given through its setter, so it
   takes what an assignment takes. */
static PyObject *
rec_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"id", "mode", "s1", "s2", "pos", "energy", "t_m", "settle_step", NULL};
    PyObject *v[8] = {NULL};
    rec_t *a;
    int i;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOOOO|OO:AgentRecord", kwlist, &v[0], &v[1],
                                     &v[2], &v[3], &v[4], &v[5], &v[6], &v[7])
        || (a = (rec_t *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    a->settle_step = -1;
    for (i = 0; i < 8; i++)
        if (v[i] != NULL && rec_fields[i].set((PyObject *)a, v[i], rec_fields[i].closure) < 0) {
            Py_DECREF(a);
            return NULL;
        }
    return (PyObject *)a;
}

static PyObject *
rec_repr(rec_t *a)
{
    PyObject *energy = PyFloat_FromDouble(a->energy), *r;
    if (energy == NULL)
        return NULL;
    r = PyUnicode_FromFormat("AgentRecord(id=%ld, mode=%ld, s1=%ld, s2=%ld, pos=%ld, energy=%R, "
                             "t_m=%ld, settle_step=%ld)", a->id, a->mode, a->s1, a->s2, a->pos,
                             energy, a->t_m, a->settle_step);
    Py_DECREF(energy);
    return r;
}

static PyTypeObject RecordType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "gridswarm._kernel.AgentRecord",
    .tp_basicsize = sizeof(rec_t),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "AgentRecord(id, mode, s1, s2, pos, energy, t_m=0, settle_step=-1)\n--\n\n"
              "Mutable per-agent state tracked by the engine.  ``energy`` is a C\n"
              "double and the rest are C longs; each field keeps its type on\n"
              "assignment.",
    .tp_new = rec_new,
    .tp_repr = (reprfunc)rec_repr,
    .tp_getset = rec_fields,
};

/* Raise ``InvariantError("agent <a.id> <what>")``; returns -1. */
static int
invariant(rec_t *a, const char *what)
{
    PyErr_Format(InvariantError, "agent %ld %s", a->id, what);
    return -1;
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
    long s1, s2;  /* of an agent */
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
        return long_of(PyTuple_GET_ITEM(o, 0), &s->s1) < 0 ? -1
               : long_of(PyTuple_GET_ITEM(o, 1), &s->s2);
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
    rec_t *a;
    if (o == Py_None) {
        s->kind = K_EMPTY;
        return 0;
    }
    if ((a = as_record(o)) == NULL)
        return -1;
    s->kind = K_AGENT, s->s1 = a->s1, s->s2 = a->s2;
    return 0;
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
    PyObject *draw;  /* borrowed */
    double ecrit_mobile, ecrit_settled;
    long d_max;
} ctx_t;

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

/* The random stream, defined below. */
static PyTypeObject StreamType;
static double stream_next(PyObject *self);

/* One draw of ``draw``: this module's own stream directly, any other
   callable through Python. */
static int
call_draw(PyObject *draw, double *u)
{
    PyObject *v;
    if (Py_IS_TYPE(draw, &StreamType)) {
        *u = stream_next(draw);
        return 0;
    }
    if ((v = PyObject_CallNoArgs(draw)) == NULL)
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
    long dest, best = 0;
    Py_ssize_t i;
    if (energy <= c->ecrit_mobile)
        return act(out, A_SHUTDOWN, 0, 0);
    if (xi[0].kind == K_EMPTY)
        return act(out, A_SETTLE_HERE, 0, 1);
    if ((k = empty_dirs(xi, dirs))) {
        if (s2 >= c->d_max)  /* the settling horizon */
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
    long s2, up = 0, down = 0;
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
        if (s2 >= c->d_max)  /* the settling horizon */
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
mobile_rule(int r, ctx_t *c, const rec_t *a, const slot_t *xi, act_t *out)
{
    if (r == R_SLLG)
        return mobile_sllg(c, a->energy, a->s2, xi, out);
    return r == R_SLUG ? mobile_slug(c, a->energy, xi, out) : mobile_sltt(c, a->energy, xi, out);
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

/* The sub-state settled rule ``r`` gives; reads ``a.energy``, ``a.s1``
   and ``a.s2``. */
static long
settled_rule(int r, ctx_t *c, const rec_t *a, const slot_t *xi, int approach1)
{
    long s2 = a->s2, rel[4];
    int d, nrel = 0;
    if (r != R_SLTT && s2 >= c->d_max)  /* the settling horizon */
        return S_LOW_ENERGY;
    for (d = 1; d <= 4; d++) {
        const slot_t *g = &xi[d];
        if (g->kind == K_AGENT
            && (r == R_SLLG ? g->s2 == s2 + 1 : r == R_SLUG ? g->s2 > s2 : g->s2 == d))
            rel[nrel++] = g->s1;
    }
    return settled_common(c, a->energy, a->s1, xi, rel, nrel, approach1);
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

/* A rule called from Python reads ``p.d_max`` once per call, through
   its property, as the world does once per run. */
static PyObject *
py_mobile(int r, const char *name, PyObject *const *args, Py_ssize_t nargs)
{
    ctx_t c = {0};
    slot_t xi[10];
    act_t out;
    rec_t *a;
    if (check_args(name, nargs, 4) < 0 || (a = as_record(args[0])) == NULL)
        return NULL;
    c.draw = args[3];
    if (attr_double(args[2], N_ECRIT_MOBILE, &c.ecrit_mobile) < 0
        || attr_long(args[2], N_D_MAX, &c.d_max) < 0
        || decode_xi(args[1], xi, MOBILE_SLOTS) < 0 || mobile_rule(r, &c, a, xi, &out) < 0)
        return NULL;
    return make_action(&out);
}

static PyObject *
py_settled(int r, const char *name, PyObject *const *args, Py_ssize_t nargs)
{
    ctx_t c = {0};
    slot_t xi[10];
    rec_t *a;
    int approach1;
    if (check_args(name, nargs, 4) < 0 || (a = as_record(args[0])) == NULL
        || (approach1 = PyObject_RichCompareBool(args[3], ONE, Py_EQ)) < 0
        || attr_double(args[2], N_ECRIT_SETTLED, &c.ecrit_settled) < 0
        || attr_long(args[2], N_D_MAX, &c.d_max) < 0
        || decode_xi(args[1], xi, SETTLED_SLOTS) < 0)
        return NULL;
    return PyLong_FromLong(settled_rule(r, &c, a, xi, approach1));
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

/* -- sensing ------------------------------------------------------------- */

/* The mode of agent ``a``, which must be mobile or settled to sense. */
static int
sensing_mode(const rec_t *a)
{
    if (a->mode == MODE_MOBILE || a->mode == MODE_SETTLED)
        return 0;
    if (a->mode >= 0 && a->mode < 4)
        PyErr_Format(PyExc_ValueError, "agent %ld cannot sense in mode %s", a->id,
                     MODE_TEXT[a->mode]);
    else
        PyErr_Format(PyExc_ValueError, "agent %ld cannot sense in mode %ld", a->id, a->mode);
    return -1;
}

/* Gather the ten sensed slots of an agent in ``mode`` off the occupant
   layers ``ground`` and ``air``, for its cell and its N, E, S, W
   neighbors ``cells``: a cell of ``-1`` reads as a wall, and a settled
   agent's air slots read empty. */
static int
gather(const long *cells, PyObject *ground, PyObject *air, long mode, slot_t *sl)
{
    PyObject *g, *v = Py_None;
    int i;
    for (i = 0; i < 5; i++) {
        if (cells[i] < 0) {
            sl[i].kind = K_WALL;
            sl[5 + i].kind = mode == MODE_MOBILE ? K_WALL : K_EMPTY;
        }
        else if ((g = list_item(ground, cells[i])) == NULL
                 || (mode == MODE_MOBILE && (v = list_item(air, cells[i])) == NULL)
                 || occupant(g, &sl[i]) < 0 || occupant(v, &sl[5 + i]) < 0)
            return -1;
    }
    return 0;
}

/* The sensed tuple of ten gathered slots. */
static PyObject *
sensed_tuple(const slot_t *sl)
{
    PyObject *t = PyTuple_New(10), *v;
    int i;
    for (i = 0; t != NULL && i < 10; i++) {
        if (sl[i].kind == K_AGENT) {
            if ((v = Py_BuildValue("(ll)", sl[i].s1, sl[i].s2)) == NULL)
                Py_CLEAR(t);
        }
        else
            v = Py_NewRef(sl[i].kind == K_WALL ? WALL : EMPTY);
        if (t != NULL)
            PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

/* -- the event-log line writer ------------------------------------------- */

typedef struct {
    char *buf;
    Py_ssize_t len, cap;
} sbuf;

/* Make room for ``n`` more bytes.  A buffer starts at 256 bytes and
   doubles, so a run's text buffer grows to its longest step. */
static int
sb_reserve(sbuf *b, Py_ssize_t n)
{
    Py_ssize_t cap = b->cap ? b->cap : 256;
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

/* Append the event-log line ``t,agent,action,from,to,s1,s2,E`` and its
   newline: a cell below 0 prints as ``-``, ``s1`` by name and ``E`` as
   ``f"{E:g}"``.  An integral ``E`` below 1e6 prints as the integer (with
   the sign of a zero); anything else goes through
   ``PyOS_double_to_string``, which is what ``format`` calls.  The
   streamed log and ``Event.format`` both print here.  On an error the
   buffer is left as it was. */
static int
put_line(sbuf *b, long long t, long long id, const char *action, Py_ssize_t alen,
         long long src, long long dst, long long s1, long long s2, double e)
{
    const long long cells[2] = {src, dst};
    Py_ssize_t start = b->len, glen;
    char *p, *g;
    int i;
    if (s1 < 0 || s1 >= 4) {
        PyErr_Format(PyExc_ValueError, "an event's s1 is 0 to 3, not %lld", s1);
        return -1;
    }
    if (sb_reserve(b, 5 * 24 + alen + 16 + 32) < 0)
        return -1;
    p = b->buf + b->len;
    p = put_ll(p, t);
    *p++ = ',';
    p = put_ll(p, id);
    *p++ = ',';
    memcpy(p, action, (size_t)alen);
    p += alen;
    for (i = 0; i < 2; i++) {
        *p++ = ',';
        if (cells[i] < 0)
            *p++ = '-';
        else
            p = put_ll(p, cells[i]);
    }
    *p++ = ',';
    memcpy(p, S1_TEXT[s1], strlen(S1_TEXT[s1]));
    p += strlen(S1_TEXT[s1]);
    *p++ = ',';
    p = put_ll(p, s2);
    *p++ = ',';
    if (e == floor(e) && fabs(e) < 1e6) {
        if (e == 0.0 && signbit(e))
            *p++ = '-';
        p = put_ll(p, (long long)e);
        *p++ = '\n';
        b->len = p - b->buf;
        return 0;
    }
    b->len = p - b->buf;
    g = PyOS_double_to_string(e, 'g', 6, 0, NULL);
    glen = g == NULL ? 0 : (Py_ssize_t)strlen(g);
    if (g == NULL || sb_reserve(b, glen + 1) < 0) {
        PyMem_Free(g);
        b->len = start;
        return -1;
    }
    memcpy(b->buf + b->len, g, (size_t)glen);
    b->len += glen;
    b->buf[b->len++] = '\n';
    PyMem_Free(g);
    return 0;
}

/* Append the line of the ``Event`` tuple ``ev``. */
static int
format_line(sbuf *b, PyObject *ev)
{
    static const int ints[6] = {0, 1, 3, 4, 5, 6};
    long long v[8];
    PyObject *const *f;
    const char *action;
    Py_ssize_t alen;
    double e;
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
    if ((action = PyUnicode_AsUTF8AndSize(f[2], &alen)) == NULL)
        return -1;
    return put_line(b, v[0], v[1], action, alen, v[3], v[4], v[5], v[6], e);
}

/* ``Event.format``: the line of one event, without its newline. */
static PyObject *
k_format_event(PyObject *Py_UNUSED(m), PyObject *ev)
{
    sbuf b = {NULL, 0, 0};
    PyObject *r = format_line(&b, ev) == 0 ? PyUnicode_DecodeUTF8(b.buf, b.len - 1, NULL) : NULL;
    PyMem_Free(b.buf);
    return r;
}

/* -- the world of one run ------------------------------------------------ */

/* A settled-energy event: at the end of step ``step``, agent ``id``
   crosses the reporting threshold (kind 0) or fails (kind 1). */
typedef struct {
    long step, id;
    int kind;
} energy_event_t;

typedef struct {
    PyObject_HEAD
    /* The run's own objects, shared with its Simulation. */
    PyObject *region, *p, *agents, *ground, *air, *awake, *ac_series;
    PyObject *events;     /* the ``Event``s of ``log_events=True``, or NULL */
    PyObject *on_events;  /* takes each step's lines as one bytes, or NULL */
    sbuf text;            /* the lines of the step, for ``on_events`` */
    PyObject *approach;   /* ``p.approach``, handed to a settled seam */
    PyObject *settled_int;  /* the settled count, shared by ``ac_series`` */
    /* The region. */
    Py_ssize_t ncells;
    int (*nb)[4];  /* the N, E, S, W neighbors of each cell, -1 for a wall */
    int *dist;     /* the hop distance of each cell from the entry */
    long entry;
    /* The parameters. */
    double e0, alpha, m;
    long dt;
    int approach1, adversarial;
    ctx_t ctx;  /* its ``draw`` is the step's */
    /* The run. */
    long settled, t;
    int stepping;  /* a step is running: one may not start inside it */
    energy_event_t *heap;
    Py_ssize_t nheap, heap_cap;
    /* The step's wake order: ``keys[cur:nkeys]`` are the wakes still
       ahead, in order, and ``keyed[id] == round`` for an agent keyed this
       step.  Both are sized at the ``nids`` agents of the step's start:
       each of them has at most one key a step. */
    uint64_t *keys, *keyed, round;
    Py_ssize_t nkeys, cur, nids, ids_cap;
    /* The step's seams, borrowed for the call. */
    PyObject *t_int, *sense, *mobile_decide, *settled_decide;
    int mobile_r, settled_r;  /* the own rule of the mode, or -1: call Python */
} world_t;

static PyTypeObject WorldType;

/* ``o`` as a world; ``TypeError`` if it is none. */
static world_t *
as_world(PyObject *o)
{
    if (Py_IS_TYPE(o, &WorldType))
        return (world_t *)o;
    PyErr_Format(PyExc_TypeError, "expected a world, got %.100s", Py_TYPE(o)->tp_name);
    return NULL;
}

/* -- cells ------------------------------------------------------------- */

/* The cell of agent ``a``; ``IndexError`` unless it lies in the region. */
static int
cell_of(world_t *w, const rec_t *a, long *cell)
{
    *cell = a->pos;
    if (*cell < 0 || *cell >= w->ncells) {
        PyErr_Format(PyExc_IndexError, "cell %ld lies outside the region", *cell);
        return -1;
    }
    return 0;
}

/* Cell ``cell`` and its N, E, S, W neighbors. */
static void
around(world_t *w, long cell, long *cells)
{
    int i;
    cells[0] = cell;
    for (i = 0; i < 4; i++)
        cells[i + 1] = w->nb[cell][i];
}

/* -- events and the ledger --------------------------------------------- */

/* Log the event ``(t, a.id, action, src, dst, a.s1, a.s2, a.energy)``, if
   the run logs events: as its line, written straight into the step's
   text, for ``on_events``, or as an ``Event`` appended to ``events``.  A
   cell of ``-1`` prints as ``-``. */
static int
log_event(world_t *w, const rec_t *a, int action, long src, long dst)
{
    PyObject *ev;
    int i, r = 0;
    if (w->on_events != NULL)
        return put_line(&w->text, w->t, a->id, STR_TEXT[action],
                        (Py_ssize_t)strlen(STR_TEXT[action]), src, dst, a->s1, a->s2, a->energy);
    if (w->events == NULL)
        return 0;
    if ((ev = EventType->tp_alloc(EventType, 8)) == NULL)
        return -1;
    /* Ints, a str and a float cannot form a cycle: keep the log out of
       the collector's walks. */
    PyObject_GC_UnTrack(ev);
    PyTuple_SET_ITEM(ev, 0, Py_NewRef(w->t_int));
    PyTuple_SET_ITEM(ev, 1, PyLong_FromLong(a->id));
    PyTuple_SET_ITEM(ev, 2, Py_NewRef(STR[action]));
    PyTuple_SET_ITEM(ev, 3, PyLong_FromLong(src));
    PyTuple_SET_ITEM(ev, 4, PyLong_FromLong(dst));
    PyTuple_SET_ITEM(ev, 5, PyLong_FromLong(a->s1));
    PyTuple_SET_ITEM(ev, 6, PyLong_FromLong(a->s2));
    PyTuple_SET_ITEM(ev, 7, PyFloat_FromDouble(a->energy));
    for (i = 0; i < 8; i++)
        if (PyTuple_GET_ITEM(ev, i) == NULL)
            r = -1;
    if (r == 0)
        r = PyList_Append(w->events, ev);
    Py_DECREF(ev);
    return r;
}

/* Set settled agent ``a``'s energy as of the end of step ``t`` from the
   ledger ``e0 - t_m - alpha * t_s``, with ``t_s = t - settle_step`` (each
   int here is below 2**53, so exact as a double). */
static void
materialize(world_t *w, rec_t *a, long t)
{
    a->energy = (w->e0 - (double)a->t_m) - w->alpha * (double)(t - a->settle_step);
}

static int
ev_less(const energy_event_t *x, const energy_event_t *y)
{
    if (x->step != y->step)
        return x->step < y->step;
    if (x->kind != y->kind)
        return x->kind < y->kind;
    return x->id < y->id;
}

static int
heap_push(world_t *w, long step, int kind, long id)
{
    energy_event_t ev = {step, id, kind}, *grown;
    Py_ssize_t i = w->nheap, parent;
    if (w->nheap == w->heap_cap) {
        Py_ssize_t cap = w->heap_cap ? 2 * w->heap_cap : 64;
        if ((grown = PyMem_Realloc(w->heap, sizeof(*grown) * (size_t)cap)) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        w->heap = grown;
        w->heap_cap = cap;
    }
    for (; i > 0 && ev_less(&ev, &w->heap[parent = (i - 1) / 2]); i = parent)
        w->heap[i] = w->heap[parent];
    w->heap[i] = ev;
    w->nheap++;
    return 0;
}

static energy_event_t
heap_pop(world_t *w)
{
    energy_event_t top = w->heap[0], last = w->heap[--w->nheap];
    Py_ssize_t i = 0, child;
    while ((child = 2 * i + 1) < w->nheap) {
        if (child + 1 < w->nheap && ev_less(&w->heap[child + 1], &w->heap[child]))
            child++;
        if (!ev_less(&w->heap[child], &last))
            break;
        w->heap[i] = w->heap[child];
        i = child;
    }
    w->heap[i] = last;
    return top;
}

/* The first end-of-step index after settling at step ``s`` at which the
   settled energy ``e_settle - alpha * t_s`` is at most ``threshold``. */
static long
first_step(world_t *w, double e_settle, double threshold, long s)
{
    double alpha = w->alpha, k = ceil((e_settle - threshold) / alpha - 1e-12);
    while (e_settle - alpha * (k - 1) <= threshold)
        k -= 1;
    while (e_settle - alpha * k > threshold)
        k += 1;
    return s + (k > 1 ? (long)k : 1);
}

/* Schedule the energy events of agent ``a``, settling now. */
static int
schedule(world_t *w, const rec_t *a)
{
    double e_settle;
    if (w->alpha <= 0)
        return 0;
    /* The settling step itself is still charged as a movement tick at
       the end of the wake. */
    e_settle = w->e0 - (double)(a->t_m + 1);
    if (e_settle > w->ctx.ecrit_settled
        && heap_push(w, first_step(w, e_settle, w->ctx.ecrit_settled, w->t), 0, a->id) < 0)
        return -1;
    return heap_push(w, first_step(w, e_settle, 0.0, w->t), 1, a->id);
}

/* Take agent ``a`` out of ``awake``. */
static int
awake_discard(world_t *w, rec_t *a)
{
    return PySet_Discard(w->awake, (PyObject *)a) < 0 ? -1 : 0;
}

/* Agent ``aid`` of the run. */
static rec_t *
agent(world_t *w, long aid)
{
    PyObject *a = list_item(w->agents, aid - 1);
    return a == NULL ? NULL : as_record(a);
}

/* -- the wake order ---------------------------------------------------- */

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
        rec_t *a = agent(w, aid);
        long pos;
        if (a == NULL || cell_of(w, a, &pos) < 0)
            return -1;
        if (w->dist[pos] < 0) {
            PyErr_Format(PyExc_ValueError, "agent %ld woke on a wall cell", aid);
            return -1;
        }
        sub = (uint64_t)w->dist[pos];
    }
    else {
        double u;
        if (call_draw(w->ctx.draw, &u) < 0)
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

/* Note that agent ``a`` has a key this step: it must be the run's agent
   of its id, and have no key yet. */
static int
admit(world_t *w, const rec_t *a)
{
    long aid = a->id;
    if (aid < 1 || aid > w->nids || w->keyed[aid] == w->round || aid > PyList_GET_SIZE(w->agents)
        || PyList_GET_ITEM(w->agents, aid - 1) != (PyObject *)a) {
        PyErr_Format(InvariantError, "agent %ld cannot join this step's wake order", aid);
        return -1;
    }
    w->keyed[aid] = w->round;
    return 0;
}

/* Insert ``key`` of agent ``a`` after the cursor, in order. */
static int
insort(world_t *w, const rec_t *a, uint64_t key)
{
    Py_ssize_t lo = w->cur, hi = w->nkeys, mid;
    if (admit(w, a) < 0)
        return -1;
    while (lo < hi) {
        mid = (lo + hi) / 2;
        if (key < w->keys[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    memmove(w->keys + lo + 1, w->keys + lo, sizeof(uint64_t) * (size_t)(w->nkeys - lo));
    w->keys[lo] = key;
    w->nkeys++;
    return 0;
}

static int
cmp_key(const void *x, const void *y)
{
    uint64_t a = *(const uint64_t *)x, b = *(const uint64_t *)y;
    return (a > b) - (a < b);
}

static void
sort_keys(uint64_t *keys, Py_ssize_t n)
{
    qsort(keys, (size_t)n, sizeof(uint64_t), cmp_key);
}

/* Resize ``*array`` to ``n`` words. */
static int
resize(uint64_t **array, Py_ssize_t n)
{
    uint64_t *grown = PyMem_Realloc(*array, sizeof(uint64_t) * (size_t)n);
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *array = grown;
    return 0;
}

/* This step's wake order: the agents in ``awake``, keyed and sorted; a
   random key is one draw, so random keys are drawn in id order. */
static int
wake_order(world_t *w)
{
    PyObject *it, *item;
    Py_ssize_t i;
    rec_t *a;
    int r;

    w->nkeys = w->cur = 0;
    w->nids = PyList_GET_SIZE(w->agents);
    if (w->nids >= w->ids_cap) {  /* grow both, the marks of new ids cleared */
        Py_ssize_t cap = 2 * w->nids + 64;
        if (resize(&w->keys, cap) < 0 || resize(&w->keyed, cap) < 0)
            return -1;
        memset(w->keyed + w->ids_cap, 0, sizeof(uint64_t) * (size_t)(cap - w->ids_cap));
        w->ids_cap = cap;
    }
    w->round++;
    if ((it = PyObject_GetIter(w->awake)) == NULL)
        return -1;
    /* ``admit`` takes each agent once and only if its id names it, so
       the ids fit ``keys``. */
    while ((item = PyIter_Next(it)) != NULL) {
        r = (a = as_record(item)) == NULL ? -1 : admit(w, a);
        if (r == 0)
            w->keys[w->nkeys++] = (uint64_t)a->id;
        Py_DECREF(item);
        if (r < 0)
            break;
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;
    if (!w->adversarial)
        sort_keys(w->keys, w->nkeys);
    for (i = 0; i < w->nkeys; i++)
        if (wake_key(w, (long)w->keys[i], &w->keys[i]) < 0)
            return -1;
    sort_keys(w->keys, w->nkeys);
    return 0;
}

/* A cell's projected ground state changed: its settled occupant and
   settled neighbors that are not low-energy join ``awake``.  During the
   wakes, one whose key this step would come after the waking agent's is
   inserted into the order and wakes into the change now. */
static int
mark(world_t *w, long cell, int during_wakes)
{
    long cells[5];
    uint64_t key;
    PyObject *g;
    rec_t *a;
    int i;
    around(w, cell, cells);
    for (i = 0; i < 5; i++) {
        if (cells[i] < 0)
            continue;
        if ((g = list_item(w->ground, cells[i])) == NULL)
            return -1;
        if (g == Py_None)
            continue;
        if ((a = as_record(g)) == NULL)
            return -1;
        if (a->s1 == S_LOW_ENERGY)
            continue;
        if (PySet_Add(w->awake, (PyObject *)a) < 0)
            return -1;
        if (!during_wakes || (a->id >= 1 && a->id <= w->nids && w->keyed[a->id] == w->round))
            continue;
        if (wake_key(w, a->id, &key) < 0
            || (key > w->keys[w->cur - 1] && insort(w, a, key) < 0))
            return -1;
    }
    return 0;
}

/* -- the wakes --------------------------------------------------------- */

/* The seams called through Python: ``sense(world, a)``, then ``decide(a,
   xi, p, last)``; a new reference to the decision. */
static PyObject *
call_seams(world_t *w, rec_t *a, PyObject *decide, PyObject *last)
{
    PyObject *args[4] = {(PyObject *)w, (PyObject *)a}, *xi, *r;
    if ((xi = PyObject_Vectorcall(w->sense, args, 2, NULL)) == NULL)
        return NULL;
    args[0] = (PyObject *)a, args[1] = xi, args[2] = w->p, args[3] = last;
    r = PyObject_Vectorcall(decide, args, 4, NULL);
    Py_DECREF(xi);
    return r;
}

/* The sensed slots of agent ``a`` in ``mode``, gathered off the layers. */
static int
sense_own(world_t *w, const rec_t *a, long mode, slot_t *sl)
{
    long cells[5];
    if (cell_of(w, a, &cells[0]) < 0)
        return -1;
    around(w, cells[0], cells);
    return gather(cells, w->ground, w->air, mode, sl);
}

static PyObject *
k_sense(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    slot_t sl[10];
    world_t *w;
    rec_t *a;
    if (check_args("sense", nargs, 2) < 0 || (w = as_world(args[0])) == NULL
        || (a = as_record(args[1])) == NULL || sensing_mode(a) < 0
        || sense_own(w, a, a->mode, sl) < 0)
        return NULL;
    return sensed_tuple(sl);
}

/* The outcome of a mobile wake: the own rule on slots gathered off the
   layers, or the seams' ``Action`` decoded. */
static int
decide_mobile(world_t *w, rec_t *a, act_t *out)
{
    slot_t sl[10];
    PyObject *action;
    long f[3];
    int i, r = 0;
    if (w->mobile_r >= 0)
        return sense_own(w, a, MODE_MOBILE, sl) < 0 ? -1 : mobile_rule(w->mobile_r, &w->ctx, a, sl, out);
    if ((action = call_seams(w, a, w->mobile_decide, w->ctx.draw)) == NULL)
        return -1;
    /* An ``Action`` is the tuple ``(kind, direction, s2)``. */
    if (!PyTuple_Check(action) || PyTuple_GET_SIZE(action) != 3) {
        PyErr_Format(PyExc_TypeError, "a mobile rule returns an Action, not %.100s",
                     Py_TYPE(action)->tp_name);
        r = -1;
    }
    for (i = 0; r == 0 && i < 3; i++)
        r = long_of(PyTuple_GET_ITEM(action, i), &f[i]);
    Py_DECREF(action);
    return r < 0 ? -1 : act(out, f[0], f[1], f[2]);
}

/* The sub-state a settled wake projects next: the own rule on slots
   gathered off ``ground``, or the seams' ``s1`` decoded. */
static int
decide_settled(world_t *w, rec_t *a, long *out)
{
    slot_t sl[10];
    PyObject *s1;
    if (w->settled_r >= 0) {
        if (sense_own(w, a, MODE_SETTLED, sl) < 0)
            return -1;
        *out = settled_rule(w->settled_r, &w->ctx, a, sl, w->approach1);
        return 0;
    }
    if ((s1 = call_seams(w, a, w->settled_decide, w->approach)) == NULL)
        return -1;
    *out = PyLong_AsLong(s1);
    Py_DECREF(s1);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* Move mobile ``a`` from ``src`` in direction ``dir``, carrying ``s2``. */
static int
move(world_t *w, rec_t *a, long src, long dir, long s2)
{
    long dst = w->nb[src][dir - 1];
    PyObject *v;
    if (dst >= 0 && (v = list_item(w->air, dst)) == NULL)
        return -1;
    if (dst < 0 || v != Py_None)
        return invariant(a, "moved into an occupied or wall cell");
    a->pos = dst;
    a->s2 = s2;
    return list_set(w->air, src, Py_None) < 0 || list_set(w->air, dst, (PyObject *)a) < 0
                   || log_event(w, a, E_MOVE, src, dst) < 0
               ? -1 : 0;
}

/* Settle mobile ``a`` from ``src``, in place or into the empty neighbor
   the outcome names, and mark the cell; it stays in ``awake``. */
static int
settle(world_t *w, rec_t *a, long src, const act_t *out)
{
    long dst = out->kind == A_SETTLE_AT ? w->nb[src][out->dir - 1] : src;
    PyObject *g, *count;
    if (dst >= 0 && (g = list_item(w->ground, dst)) == NULL)
        return -1;
    if (dst < 0 || g != Py_None)
        return invariant(a, "settled into an occupied or wall cell");
    if ((count = PyLong_FromLong(w->settled + 1)) == NULL)
        return -1;
    Py_SETREF(w->settled_int, count);
    w->settled++;
    a->pos = dst;
    a->mode = MODE_SETTLED, a->s1 = S_BEACON, a->s2 = out->s2, a->settle_step = w->t;
    return list_set(w->air, src, Py_None) < 0 || list_set(w->ground, dst, (PyObject *)a) < 0
                   || schedule(w, a) < 0 || log_event(w, a, E_SETTLE, src, dst) < 0
                   || mark(w, dst, 1) < 0
               ? -1 : 0;
}

static int
shut_down(world_t *w, rec_t *a, long src)
{
    a->mode = MODE_SHUTDOWN;
    return list_set(w->air, src, Py_None) < 0 || awake_discard(w, a) < 0
                   || log_event(w, a, E_SHUTDOWN, src, -1) < 0
               ? -1 : 0;
}

static int
wake_mobile(world_t *w, rec_t *a)
{
    act_t out;
    long src;
    int r;

    if (decide_mobile(w, a, &out) < 0 || cell_of(w, a, &src) < 0)
        return -1;
    if ((out.kind == A_MOVE || out.kind == A_SETTLE_AT) && (out.dir < 1 || out.dir > 4)) {
        char what[64];
        PyOS_snprintf(what, sizeof(what), "chose direction %ld, not one of 1-4", out.dir);
        return invariant(a, what);
    }
    switch (out.kind) {
    case A_STAY:
        r = 0;
        break;
    case A_MOVE:
        r = move(w, a, src, out.dir, out.s2);
        break;
    case A_SETTLE_HERE:
    case A_SETTLE_AT:
        r = settle(w, a, src, &out);
        break;
    case A_SHUTDOWN:
        r = shut_down(w, a, src);
        break;
    default:
        return invariant(a, "chose an action of no known kind");
    }
    if (r < 0)
        return -1;
    /* The movement tick of this step, whatever the agent did; a mobile
       has no settled steps. */
    a->t_m++;
    a->energy = w->e0 - (double)a->t_m;
    return 0;
}

/* A settled wake ends with the agent out of ``awake``; a transition's
   marks put it back unless it reported low. */
static int
wake_settled(world_t *w, rec_t *a)
{
    slot_t sl[10];
    long s1, cell;
    int d;

    /* Materialize the lazily tracked energy, as of the end of last step. */
    materialize(w, a, w->t - 1);
    if (decide_settled(w, a, &s1) < 0 || awake_discard(w, a) < 0)
        return -1;
    if (s1 == a->s1)
        return 0;
    if (a->s1 == S_CLOSED_BEACON && s1 == S_BEACON)
        return invariant(a, "reopened a closed beacon");
    if (s1 == S_CLOSED_BEACON) {
        if (sense_own(w, a, MODE_SETTLED, sl) < 0)
            return -1;
        for (d = 1; d <= 4; d++)
            if (sl[d].kind == K_EMPTY)
                return invariant(a, "closed with an empty neighbor in sight");
    }
    a->s1 = s1;
    if (cell_of(w, a, &cell) < 0)
        return -1;
    return log_event(w, a, E_TRANSITION, cell, cell) < 0 || mark(w, cell, 1) < 0 ? -1 : 0;
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

/* Wake every agent in ``awake`` once, in key order; each senses the
   world as earlier wakes left it.  A mobile pays this step's movement
   tick at the end of its wake. */
static int
wake_all(world_t *w)
{
    rec_t *a;
    int r = wake_order(w);
    /* The order may grow behind the cursor's back: only after it. */
    while (r == 0 && w->cur < w->nkeys) {
        uint64_t key = w->keys[w->cur++];
        if ((a = agent(w, (long)(key & ID_MASK))) == NULL)
            return -1;
        Py_INCREF(a);
        r = sensing_mode(a);
        if (r == 0)
            r = a->mode == MODE_MOBILE ? wake_mobile(w, a) : wake_settled(w, a);
        Py_DECREF(a);
    }
    return r;
}

/* -- entry, energy events and the close -------------------------------- */

/* Every ``dt`` steps, once the wakes have resolved, a new agent enters if
   the entry's air is free; it stays dormant (no sensing, no energy tick)
   until the next step.  Entering costs one unit of movement energy. */
static int
enter(world_t *w)
{
    PyObject *v, *g;
    rec_t *a, *under = NULL;
    int r;
    if (w->t % w->dt)
        return 0;
    if ((v = list_item(w->air, w->entry)) == NULL || (g = list_item(w->ground, w->entry)) == NULL)
        return -1;
    if (v != Py_None)
        return 0;
    if ((g != Py_None && (under = as_record(g)) == NULL)
        || (a = (rec_t *)RecordType.tp_alloc(&RecordType, 0)) == NULL)
        return -1;
    a->id = (long)PyList_GET_SIZE(w->agents) + 1, a->pos = w->entry;
    a->mode = MODE_MOBILE, a->s1 = S_MOBILE, a->s2 = under == NULL ? 0 : under->s2;
    a->energy = w->e0 - 1, a->t_m = 1, a->settle_step = -1;
    r = PyList_Append(w->agents, (PyObject *)a) < 0
        || list_set(w->air, w->entry, (PyObject *)a) < 0
        || PySet_Add(w->awake, (PyObject *)a) < 0 || log_event(w, a, E_ENTER, -1, w->entry) < 0;
    Py_DECREF(a);
    return r ? -1 : 0;
}

/* Settled agent ``a`` fails: it leaves the ground and ``awake``. */
static int
fail(world_t *w, rec_t *a)
{
    PyObject *count;
    long cell;
    if (cell_of(w, a, &cell) < 0 || (count = PyLong_FromLong(w->settled - 1)) == NULL)
        return -1;
    Py_SETREF(w->settled_int, count);
    w->settled--;
    a->mode = MODE_FAILED;
    return list_set(w->ground, cell, Py_None) < 0 || awake_discard(w, a) < 0
                   || log_event(w, a, E_FAIL, cell, cell) < 0 || mark(w, cell, 0) < 0
               ? -1 : 0;
}

/* Apply the settled-energy events due by this step: threshold crossings
   and failures.  Mobiles were charged in their wakes. */
static int
charge(world_t *w)
{
    energy_event_t ev;
    rec_t *a;
    int r;
    while (w->nheap && w->heap[0].step <= w->t) {
        ev = heap_pop(w);
        if ((a = agent(w, ev.id)) == NULL)
            return -1;
        Py_INCREF(a);
        if (a->mode == MODE_SETTLED)
            materialize(w, a, w->t);
        if (ev.kind == 1)
            r = fail(w, a);
        else  /* the reporting threshold */
            r = a->s1 != S_LOW_ENERGY ? PySet_Add(w->awake, (PyObject *)a) : 0;
        Py_DECREF(a);
        if (r < 0)
            return -1;
    }
    return 0;
}

/* Record the step's series, hand the step's lines to ``on_events`` as one
   ``bytes`` and read termination off the entry cell; a new reference to
   it, or to ``None`` while the entry cell terminates nothing. */
static PyObject *
close_step(world_t *w)
{
    PyObject *g, *r = Py_None, *lines, *ret;
    rec_t *a;
    if (PyList_Append(w->ac_series, w->settled_int) < 0)
        return NULL;
    if (w->text.len) {
        lines = PyBytes_FromStringAndSize(w->text.buf, w->text.len);
        w->text.len = 0;
        if (lines == NULL)
            return NULL;
        ret = PyObject_CallOneArg(w->on_events, lines);
        Py_DECREF(lines);
        if (ret == NULL)
            return NULL;
        Py_DECREF(ret);
    }
    if ((g = list_item(w->ground, w->entry)) == NULL)
        return NULL;
    if (g != Py_None) {
        if ((a = as_record(g)) == NULL)
            return NULL;
        if (a->s1 == S_LOW_ENERGY)
            r = STR[E_LOW_ENERGY];
        else if (a->s1 == S_CLOSED_BEACON)
            r = STR[E_CLOSED];
    }
    return Py_NewRef(r);
}

static PyObject *
k_step(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    world_t *w;
    PyObject *r = NULL;
    int own_sensing;
    if (check_args("step", nargs, 6) < 0 || (w = as_world(args[0])) == NULL)
        return NULL;
    /* The step's seams and wake order live in the world for the call: a
       seam that stepped the same world again would pull them away. */
    if (w->stepping) {
        PyErr_SetString(PyExc_RuntimeError, "the world is already stepping");
        return NULL;
    }
    if (long_of(args[1], &w->t) < 0)
        return NULL;
    w->stepping = 1;
    w->t_int = args[1];
    w->ctx.draw = args[2];
    w->sense = args[3];
    w->mobile_decide = args[4];
    w->settled_decide = args[5];
    /* A mode's wakes are compiled only when sense and its rule both are. */
    own_sensing = w->sense == own_sense;
    w->mobile_r = own_sensing ? rule_index(w->mobile_decide, own_mobile) : -1;
    w->settled_r = own_sensing ? rule_index(w->settled_decide, own_settled) : -1;
    if (wake_all(w) == 0 && enter(w) == 0 && charge(w) == 0)
        r = close_step(w);
    w->t_int = w->ctx.draw = w->sense = w->mobile_decide = w->settled_decide = NULL;
    w->stepping = 0;
    return r;
}

/* -- building the world ------------------------------------------------ */

static int
world_traverse(world_t *w, visitproc visit, void *arg)
{
    Py_VISIT(w->region);
    Py_VISIT(w->p);
    Py_VISIT(w->agents);
    Py_VISIT(w->ground);
    Py_VISIT(w->air);
    Py_VISIT(w->awake);
    Py_VISIT(w->ac_series);
    Py_VISIT(w->events);
    Py_VISIT(w->on_events);
    Py_VISIT(w->approach);
    Py_VISIT(w->settled_int);
    return 0;
}

static int
world_clear(world_t *w)
{
    Py_CLEAR(w->region);
    Py_CLEAR(w->p);
    Py_CLEAR(w->agents);
    Py_CLEAR(w->ground);
    Py_CLEAR(w->air);
    Py_CLEAR(w->awake);
    Py_CLEAR(w->ac_series);
    Py_CLEAR(w->events);
    Py_CLEAR(w->on_events);
    Py_CLEAR(w->approach);
    Py_CLEAR(w->settled_int);
    return 0;
}

static void
world_dealloc(world_t *w)
{
    PyObject_GC_UnTrack(w);
    world_clear(w);
    PyMem_Free(w->nb);
    PyMem_Free(w->dist);
    PyMem_Free(w->heap);
    PyMem_Free(w->keys);
    PyMem_Free(w->keyed);
    PyMem_Free(w->text.buf);
    Py_TYPE(w)->tp_free((PyObject *)w);
}

/* Read the region into C arrays: each cell's four neighbors, each in
   ``[-1, ncells)``, and its distance. */
static int
read_region(world_t *w)
{
    PyObject *neighbors = NULL, *distances = NULL, *nb;
    long width, height, v;
    Py_ssize_t c;
    int i, r = -1;
    if (attr_long(w->region, N_WIDTH, &width) < 0 || attr_long(w->region, N_HEIGHT, &height) < 0
        || attr_long(w->region, N_ENTRY, &w->entry) < 0
        || (neighbors = PyObject_GetAttr(w->region, NAME[N_NEIGHBORS])) == NULL
        || (distances = PyObject_GetAttr(w->region, NAME[N_DISTANCES])) == NULL)
        goto done;
    w->ncells = (Py_ssize_t)width * height;
    w->nb = PyMem_Malloc(sizeof(*w->nb) * (size_t)(w->ncells + 1));
    w->dist = PyMem_Malloc(sizeof(int) * (size_t)(w->ncells + 1));
    if (w->nb == NULL || w->dist == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (c = 0; c < w->ncells; c++) {
        if ((nb = tuple_item(neighbors, c)) == NULL)
            goto done;
        for (i = 0; i < 4 && tuple_long(nb, i, &v) == 0 && v >= -1 && v < w->ncells; i++)
            w->nb[c][i] = (int)v;
        r = PyTuple_GET_SIZE(nb) == 4 && i == 4 ? 0 : -1;
        Py_DECREF(nb);
        if (r < 0 || tuple_long(distances, c, &v) < 0 || v < -1 || v > INT_MAX)
            break;
        w->dist[c] = (int)v;
    }
    if (c < w->ncells || w->entry < 0 || w->entry >= w->ncells || PyTuple_GET_SIZE(neighbors) != c
        || PyTuple_GET_SIZE(distances) != c) {
        r = -1;
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "a region has four neighbors and a distance "
                                              "per cell, each a cell or -1, and its entry");
    }
done:
    Py_XDECREF(neighbors);
    Py_XDECREF(distances);
    return r;
}

/* Read the parameters into C scalars; ``p.d_max`` once, through its
   property. */
static int
read_params(world_t *w)
{
    PyObject *scheduler, *dt;
    int r, overflow;
    if (attr_double(w->p, N_E0, &w->e0) < 0 || attr_double(w->p, N_ALPHA, &w->alpha) < 0
        || attr_double(w->p, N_ECRIT_MOBILE, &w->ctx.ecrit_mobile) < 0
        || attr_double(w->p, N_ECRIT_SETTLED, &w->ctx.ecrit_settled) < 0
        || attr_double(w->p, N_M, &w->m) < 0 || attr_long(w->p, N_D_MAX, &w->ctx.d_max) < 0
        || (w->approach = PyObject_GetAttr(w->p, NAME[N_APPROACH])) == NULL
        || (w->approach1 = PyObject_RichCompareBool(w->approach, ONE, Py_EQ)) < 0
        || (scheduler = PyObject_GetAttr(w->p, NAME[N_SCHEDULER])) == NULL)
        return -1;
    r = PyUnicode_Check(scheduler) ? PyUnicode_CompareWithASCIIString(scheduler, "adversarial") : 1;
    Py_DECREF(scheduler);
    /* An integral float ``dt`` reads as its int.  ``t % dt`` is 0 only at
       0 for any ``dt`` a long does not hold: such a ``dt`` reads as
       ``LONG_MAX``. */
    if ((dt = PyObject_GetAttr(w->p, NAME[N_DT])) == NULL)
        return -1;
    Py_SETREF(dt, PyNumber_Long(dt));
    if (dt == NULL)
        return -1;
    w->dt = PyLong_AsLongAndOverflow(dt, &overflow);
    Py_DECREF(dt);
    if (overflow > 0)
        w->dt = LONG_MAX;
    if (w->dt < 1) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "dt must be an integer >= 1");
        return -1;
    }
    w->adversarial = r == 0;
    return 0;
}

static PyObject *
world_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"region", "p", "agents", "ground", "air", "awake", "ac_series",
                             "events", "on_events", NULL};
    PyObject *o[9];
    world_t *w;
    int i;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOO!O!O!O!O!OO:world", kwlist, &o[0], &o[1],
                                     &PyList_Type, &o[2], &PyList_Type, &o[3], &PyList_Type, &o[4],
                                     &PySet_Type, &o[5], &PyList_Type, &o[6], &o[7], &o[8])
        || check_bound() < 0)
        return NULL;
    if (o[7] != Py_None && !PyList_Check(o[7])) {
        PyErr_SetString(PyExc_TypeError, "events is a list or None");
        return NULL;
    }
    if (o[8] != Py_None && (o[7] != Py_None || !PyCallable_Check(o[8]))) {
        PyErr_SetString(PyExc_TypeError, "on_events is a callable or None, and None with events");
        return NULL;
    }
    if ((w = (world_t *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    for (i = 0; i < 7; i++)
        Py_INCREF(o[i]);
    w->region = o[0], w->p = o[1], w->agents = o[2], w->ground = o[3], w->air = o[4];
    w->awake = o[5], w->ac_series = o[6];
    if (o[7] != Py_None)
        w->events = Py_NewRef(o[7]);
    if (o[8] != Py_None)
        w->on_events = Py_NewRef(o[8]);
    Py_INCREF(ZERO);
    w->settled_int = ZERO;
    if (read_region(w) < 0 || read_params(w) < 0)
        Py_CLEAR(w);
    return (PyObject *)w;
}

static PyObject *
world_finish(world_t *w, PyObject *arg)
{
    long t;
    Py_ssize_t i;
    rec_t *a;
    if (long_of(arg, &t) < 0)
        return NULL;
    for (i = 0; i < PyList_GET_SIZE(w->agents); i++) {
        if ((a = as_record(PyList_GET_ITEM(w->agents, i))) == NULL)
            return NULL;
        if (a->mode == MODE_SETTLED)
            materialize(w, a, t);
    }
    Py_RETURN_NONE;
}

static PyMethodDef world_methods[] = {
    {"finish", (PyCFunction)world_finish, METH_O,
     "finish(t)\n--\n\n"
     "Set each settled agent's energy from the ledger as of the end of step ``t``."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef world_members[] = {
    {"region", T_OBJECT_EX, offsetof(world_t, region), READONLY, "The run's region."},
    {"agents", T_OBJECT_EX, offsetof(world_t, agents), READONLY, "The run's agents."},
    {"ground", T_OBJECT_EX, offsetof(world_t, ground), READONLY, "The ground layer."},
    {"air", T_OBJECT_EX, offsetof(world_t, air), READONLY, "The air layer."},
    {"t", T_LONG, offsetof(world_t, t), READONLY, "The step run last, or running."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject WorldType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "gridswarm._kernel.world",
    .tp_basicsize = sizeof(world_t),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "world(region, p, agents, ground, air, awake, ac_series, events, on_events)\n--\n\n"
              "The state of one run that ``step`` advances.  ``agents``, ``ground``,\n"
              "``air``, ``awake`` and ``ac_series`` are the run's own objects, which\n"
              "the world refers to, not copies.  Events go to the list ``events``,\n"
              "or as their lines, in one ``bytes`` per step, to the callable\n"
              "``on_events``; at most one of the two is given, and neither for no\n"
              "log.  ``region``, ``agents``, ``ground``, ``air`` and the step ``t``\n"
              "are readable, for a ``sense`` that wraps the kernel's own.",
    .tp_new = world_new,
    .tp_dealloc = (destructor)world_dealloc,
    .tp_traverse = (traverseproc)world_traverse,
    .tp_clear = (inquiry)world_clear,
    .tp_methods = world_methods,
    .tp_members = world_members,
};

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

/* The next float of the stream ``self``. */
static double
stream_next(PyObject *self)
{
    stream_t *s = (stream_t *)self;
    uint64_t x;
    unsigned rot;
    pcg_step(s);
    rot = (unsigned)(s->state >> 122);
    x = (uint64_t)(s->state >> 64) ^ (uint64_t)s->state;
    x = x >> rot | x << (-rot & 63);
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

static PyObject *
stream_draw(PyObject *self, PyObject *const *Py_UNUSED(args), size_t nargsf, PyObject *kwnames)
{
    if (PyVectorcall_NARGS(nargsf) != 0 || (kwnames != NULL && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError, "a uniform_stream draw takes no arguments");
        return NULL;
    }
    return PyFloat_FromDouble(stream_next(self));
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
    if (check_args("bind", nargs, 3) < 0)
        return NULL;
    if (!PyType_Check(args[0]) || !PyType_IsSubtype((PyTypeObject *)args[0], &PyTuple_Type)) {
        PyErr_SetString(PyExc_TypeError, "an Event is a tuple type");
        return NULL;
    }
    Py_XSETREF(EventType, (PyTypeObject *)Py_NewRef(args[0]));
    Py_XSETREF(InvariantError, Py_NewRef(args[1]));
    Py_XSETREF(action_fn, Py_NewRef(args[2]));
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
         "``world`` is the run's ``world``: sensing reads its region and its\n"
         "occupant layers ``ground`` and ``air``, whose cells hold an\n"
         "``AgentRecord`` or ``None``.  The neighbor index ``-1`` of a wall or\n"
         "the outside reads as a wall, and a cell outside the region raises\n"
         "``IndexError``.  Each ``(s1, s2)`` is a new tuple of the occupant's\n"
         "own ``s1`` and ``s2``."),
    FAST(mobile_decide_sllg, "mobile_decide_sllg(a, xi, p, draw)\n--\n\nThe sllg-ea mobile rule."),
    FAST(mobile_decide_slug, "mobile_decide_slug(a, xi, p, draw)\n--\n\nThe slug-ea mobile rule."),
    FAST(mobile_decide_sltt, "mobile_decide_sltt(a, xi, p, draw)\n--\n\nThe sltt-ea mobile rule."),
    FAST(settled_decide_sllg,
         "settled_decide_sllg(a, xi, p, approach)\n--\n\nThe sllg-ea settled rule."),
    FAST(settled_decide_slug,
         "settled_decide_slug(a, xi, p, approach)\n--\n\nThe slug-ea settled rule."),
    FAST(settled_decide_sltt,
         "settled_decide_sltt(a, xi, p, approach)\n--\n\nThe sltt-ea settled rule."),
    FAST(step, "step(world, t, draw, sense, mobile_decide, settled_decide)\n--\n\n"
               "Run step ``t`` of ``world``: the wakes, the entry attempt, the\n"
               "settled-energy events and the close; the termination, or ``None``."),
    {"format_event", (PyCFunction)k_format_event, METH_O,
     "format_event(ev)\n--\n\nThe event-log line of one event, without a newline."},
    FAST(bind, "bind(Event, InvariantError, _action)\n--\n\n"
               "Hand the kernel the Python classes it works with: ``Event``,\n"
               "``InvariantError`` and ``rules._action``."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel", "The simulation step of gridswarm, compiled.", -1,
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
    for (i = 0; i < NS; i++)
        if ((STR[i] = PyUnicode_InternFromString(STR_TEXT[i])) == NULL)
            goto error;
    if ((EMPTY = PyLong_FromLong(0)) == NULL || (WALL = PyLong_FromLong(-1)) == NULL
        || (ZERO = PyLong_FromLong(0)) == NULL || (ONE = PyLong_FromLong(1)) == NULL
        || add_own(m, "sense", &own_sense) < 0
        || add_own(m, "mobile_decide_sllg", &own_mobile[R_SLLG]) < 0
        || add_own(m, "mobile_decide_slug", &own_mobile[R_SLUG]) < 0
        || add_own(m, "mobile_decide_sltt", &own_mobile[R_SLTT]) < 0
        || add_own(m, "settled_decide_sllg", &own_settled[R_SLLG]) < 0
        || add_own(m, "settled_decide_slug", &own_settled[R_SLUG]) < 0
        || add_own(m, "settled_decide_sltt", &own_settled[R_SLTT]) < 0
        || PyModule_AddIntConstant(m, "MODE_MOBILE", MODE_MOBILE) < 0
        || PyModule_AddIntConstant(m, "MODE_SETTLED", MODE_SETTLED) < 0
        || PyModule_AddIntConstant(m, "MODE_SHUTDOWN", MODE_SHUTDOWN) < 0
        || PyModule_AddIntConstant(m, "MODE_FAILED", MODE_FAILED) < 0
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
        || PyModule_AddType(m, &StreamType) < 0 || PyModule_AddType(m, &WorldType) < 0
        || PyModule_AddType(m, &RecordType) < 0)
        goto error;
    return m;
error:
    Py_DECREF(m);
    return NULL;
}
