/* C accelerator for the discrete-event kernel (repro.sim.kernel).
 *
 * Implements Event, Timeout, Process, and Environment as C types with
 * exactly the semantics of the pure-Python reference implementation in
 * kernel.py: (when, priority, seq) heap ordering, the Event life-cycle
 * (pending -> triggered -> processed), generator-based processes with
 * interrupt delivery, the timeout pool, and run(until=...) in all three
 * forms. The Python classes layered on top (conditions, interruption
 * delivery, resource requests) subclass the C Event; the hooks they
 * need — settable _ok/_value/_defused/_scheduled, a `callbacks` list,
 * `_schedule`, an identity-stable bound `_resume` — are all exposed.
 *
 * The heap is a C array of {when, prio, seq, event} structs, so pushes
 * and pops never allocate tuples; Process._resume drives generators
 * with PyIter_Send, so each step of a process costs no exception
 * machinery. kernel.py loads this module when available and rebinds its
 * public names; set FRIEDA_PURE_KERNEL=1 to force the Python kernel.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <string.h>

#define URGENT_PRIO 0
#define NORMAL_PRIO 1
#define TIMEOUT_POOL_MAX 128

/* Filled in by _register() from kernel.py (strong refs, never freed). */
static PyObject *SimError = NULL;        /* repro.errors.SimulationError */
static PyObject *InterruptionCls = NULL; /* kernel._Interruption */
static PyObject *AllOfCls = NULL;        /* kernel.AllOf */
static PyObject *AnyOfCls = NULL;        /* kernel.AnyOf */

static PyObject *Pending = NULL; /* the _PENDING sentinel */

static PyObject *
sim_error(void)
{
    /* SimulationError before registration would be an import-order bug;
     * fall back to RuntimeError so the failure is at least visible. */
    return SimError ? SimError : PyExc_RuntimeError;
}

/* ------------------------------------------------------------------ */
/* Event                                                              */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *env;       /* Environment (set once by __init__) */
    PyObject *callbacks; /* list while pending, None once processed */
    PyObject *value;     /* Pending sentinel until triggered */
    PyObject *ok;        /* None / True / False */
    char defused;
    char scheduled;
} EventObject;

static PyTypeObject Event_Type;
static PyTypeObject Timeout_Type;
static PyTypeObject Process_Type;
static PyTypeObject Environment_Type;

typedef struct {
    double when;
    int prio;
    long long seq;
    PyObject *event; /* owned */
} HeapEntry;

typedef struct {
    PyObject_HEAD
    double now;
    HeapEntry *heap;
    Py_ssize_t heap_len;
    Py_ssize_t heap_cap;
    long long seq;
    PyObject *active;  /* active process or None */
    PyObject *pool;    /* list of recycled Timeouts */
    PyObject *tracers; /* list of tracer callables */
} EnvObject;

static int env_schedule_internal(EnvObject *env, PyObject *event, int prio,
                                 double delay);

static const char *
short_type_name(PyObject *obj)
{
    const char *name = Py_TYPE(obj)->tp_name;
    const char *dot = strrchr(name, '.');
    return dot ? dot + 1 : name;
}

static int
event_init_base(EventObject *self, PyObject *env)
{
    if (!PyObject_TypeCheck(env, &Environment_Type)) {
        PyErr_Format(PyExc_TypeError,
                     "Event() needs a kernel Environment, got %.100s",
                     Py_TYPE(env)->tp_name);
        return -1;
    }
    PyObject *callbacks = PyList_New(0);
    if (callbacks == NULL)
        return -1;
    Py_XSETREF(self->env, Py_NewRef(env));
    Py_XSETREF(self->callbacks, callbacks);
    Py_XSETREF(self->value, Py_NewRef(Pending));
    Py_XSETREF(self->ok, Py_NewRef(Py_None));
    self->defused = 0;
    self->scheduled = 0;
    return 0;
}

static int
event_init(PyObject *op, PyObject *args, PyObject *kwds)
{
    PyObject *env;
    static char *kwlist[] = {"env", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:Event", kwlist, &env))
        return -1;
    return event_init_base((EventObject *)op, env);
}

static int
event_traverse(PyObject *op, visitproc visit, void *arg)
{
    EventObject *self = (EventObject *)op;
    Py_VISIT(self->env);
    Py_VISIT(self->callbacks);
    Py_VISIT(self->value);
    Py_VISIT(self->ok);
    return 0;
}

static int
event_clear(PyObject *op)
{
    EventObject *self = (EventObject *)op;
    Py_CLEAR(self->env);
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->value);
    Py_CLEAR(self->ok);
    return 0;
}

static void
event_dealloc(PyObject *op)
{
    PyObject_GC_UnTrack(op);
    event_clear(op);
    Py_TYPE(op)->tp_free(op);
}

static PyObject *
event_repr(PyObject *op)
{
    EventObject *self = (EventObject *)op;
    const char *name = short_type_name(op);
    if (self->value == Pending || self->value == NULL)
        return PyUnicode_FromFormat("<%s pending at %p>", name, op);
    int truthy = PyObject_IsTrue(self->ok ? self->ok : Py_None);
    if (truthy < 0)
        return NULL;
    if (truthy)
        return PyUnicode_FromFormat("<%s ok at %p>", name, op);
    return PyUnicode_FromFormat("<%s failed(%R) at %p>", name, op, self->value);
}

/* shared by succeed()/fail() */
static PyObject *
event_trigger_internal(EventObject *self, PyObject *ok, PyObject *value)
{
    if (self->env == NULL ||
        !PyObject_TypeCheck(self->env, &Environment_Type)) {
        PyErr_SetString(sim_error(), "event not bound to an environment");
        return NULL;
    }
    if (self->value != Pending) {
        PyObject *repr = PyObject_Repr((PyObject *)self);
        if (repr == NULL)
            return NULL;
        PyErr_Format(sim_error(), "%U already triggered", repr);
        Py_DECREF(repr);
        return NULL;
    }
    Py_XSETREF(self->ok, Py_NewRef(ok));
    Py_XSETREF(self->value, Py_NewRef(value));
    if (env_schedule_internal((EnvObject *)self->env, (PyObject *)self,
                              NORMAL_PRIO, 0.0) < 0)
        return NULL;
    return Py_NewRef((PyObject *)self);
}

static PyObject *
event_succeed(PyObject *op, PyObject *args, PyObject *kwds)
{
    PyObject *value = Py_None;
    static char *kwlist[] = {"value", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O:succeed", kwlist, &value))
        return NULL;
    return event_trigger_internal((EventObject *)op, Py_True, value);
}

static PyObject *
event_fail(PyObject *op, PyObject *exc)
{
    if (!PyExceptionInstance_Check(exc)) {
        PyErr_Format(PyExc_TypeError, "fail() needs an exception, got %R", exc);
        return NULL;
    }
    return event_trigger_internal((EventObject *)op, Py_False, exc);
}

static PyObject *
event_mirror(PyObject *op, PyObject *other)
{
    if (!PyObject_TypeCheck(other, &Event_Type)) {
        PyErr_SetString(PyExc_TypeError, "trigger() needs an Event");
        return NULL;
    }
    EventObject *src = (EventObject *)other;
    if (src->value == Pending) {
        PyErr_SetString(sim_error(), "cannot mirror an untriggered event");
        return NULL;
    }
    int truthy = PyObject_IsTrue(src->ok);
    if (truthy < 0)
        return NULL;
    PyObject *res = event_trigger_internal(
        (EventObject *)op, truthy ? Py_True : Py_False, src->value);
    if (res == NULL)
        return NULL;
    Py_DECREF(res);
    Py_RETURN_NONE;
}

static PyObject *
event_defuse(PyObject *op, PyObject *noarg)
{
    (void)noarg;
    ((EventObject *)op)->defused = 1;
    Py_RETURN_NONE;
}

static PyObject *
event_reset(PyObject *op, PyObject *noarg)
{
    (void)noarg;
    EventObject *self = (EventObject *)op;
    if (self->callbacks != Py_None) {
        PyErr_SetString(sim_error(),
                        "reset() on an event that was never processed");
        return NULL;
    }
    PyObject *callbacks = PyList_New(0);
    if (callbacks == NULL)
        return NULL;
    Py_XSETREF(self->callbacks, callbacks);
    Py_XSETREF(self->value, Py_NewRef(Pending));
    Py_XSETREF(self->ok, Py_NewRef(Py_None));
    self->defused = 0;
    self->scheduled = 0;
    return Py_NewRef(op);
}

static PyObject *
event_get_triggered(PyObject *op, void *closure)
{
    (void)closure;
    return PyBool_FromLong(((EventObject *)op)->value != Pending);
}

static PyObject *
event_get_processed(PyObject *op, void *closure)
{
    (void)closure;
    return PyBool_FromLong(((EventObject *)op)->callbacks == Py_None);
}

static PyObject *
event_get_ok(PyObject *op, void *closure)
{
    (void)closure;
    EventObject *self = (EventObject *)op;
    if (self->ok == Py_None) {
        PyErr_SetString(sim_error(), "event not yet triggered");
        return NULL;
    }
    return Py_NewRef(self->ok);
}

static PyObject *
event_get_value(PyObject *op, void *closure)
{
    (void)closure;
    EventObject *self = (EventObject *)op;
    if (self->value == Pending) {
        PyErr_SetString(sim_error(), "event not yet triggered");
        return NULL;
    }
    return Py_NewRef(self->value);
}

/* raw slots the Python subclasses assign directly */
static PyObject *
event_get_raw_ok(PyObject *op, void *closure)
{
    (void)closure;
    return Py_NewRef(((EventObject *)op)->ok);
}

static int
event_set_raw_ok(PyObject *op, PyObject *value, void *closure)
{
    (void)closure;
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _ok");
        return -1;
    }
    Py_XSETREF(((EventObject *)op)->ok, Py_NewRef(value));
    return 0;
}

static PyObject *
event_get_raw_value(PyObject *op, void *closure)
{
    (void)closure;
    return Py_NewRef(((EventObject *)op)->value);
}

static int
event_set_raw_value(PyObject *op, PyObject *value, void *closure)
{
    (void)closure;
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _value");
        return -1;
    }
    Py_XSETREF(((EventObject *)op)->value, Py_NewRef(value));
    return 0;
}

static PyObject *
event_get_defused(PyObject *op, void *closure)
{
    (void)closure;
    return PyBool_FromLong(((EventObject *)op)->defused);
}

static int
event_set_defused(PyObject *op, PyObject *value, void *closure)
{
    (void)closure;
    int truthy = PyObject_IsTrue(value ? value : Py_False);
    if (truthy < 0)
        return -1;
    ((EventObject *)op)->defused = (char)truthy;
    return 0;
}

static PyObject *
event_get_scheduled(PyObject *op, void *closure)
{
    (void)closure;
    return PyBool_FromLong(((EventObject *)op)->scheduled);
}

static int
event_set_scheduled(PyObject *op, PyObject *value, void *closure)
{
    (void)closure;
    int truthy = PyObject_IsTrue(value ? value : Py_False);
    if (truthy < 0)
        return -1;
    ((EventObject *)op)->scheduled = (char)truthy;
    return 0;
}

static PyMethodDef event_methods[] = {
    {"succeed", (PyCFunction)(void (*)(void))event_succeed,
     METH_VARARGS | METH_KEYWORDS, "Trigger the event successfully."},
    {"fail", event_fail, METH_O, "Trigger the event with an exception."},
    {"trigger", event_mirror, METH_O,
     "Mirror another (triggered) event's outcome onto this one."},
    {"defuse", event_defuse, METH_NOARGS,
     "Mark a failed event as handled."},
    {"reset", event_reset, METH_NOARGS,
     "Return a processed event to the pending state for reuse."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef event_members[] = {
    {"env", T_OBJECT, offsetof(EventObject, env), READONLY,
     "Owning environment."},
    {"callbacks", T_OBJECT, offsetof(EventObject, callbacks), 0,
     "Callables run when the event is processed (None afterwards)."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef event_getset[] = {
    {"triggered", event_get_triggered, NULL,
     "True once the event has a value.", NULL},
    {"processed", event_get_processed, NULL,
     "True once callbacks have run.", NULL},
    {"ok", event_get_ok, NULL, "True when the event succeeded.", NULL},
    {"value", event_get_value, NULL, "The event's value.", NULL},
    {"_ok", event_get_raw_ok, event_set_raw_ok, NULL, NULL},
    {"_value", event_get_raw_value, event_set_raw_value, NULL, NULL},
    {"_defused", event_get_defused, event_set_defused, NULL, NULL},
    {"_scheduled", event_get_scheduled, event_set_scheduled, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject Event_Type = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.sim._ckern.Event",
    .tp_basicsize = sizeof(EventObject),
    .tp_dealloc = event_dealloc,
    .tp_repr = event_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A one-shot occurrence with a value and callbacks.",
    .tp_traverse = event_traverse,
    .tp_clear = event_clear,
    .tp_methods = event_methods,
    .tp_members = event_members,
    .tp_getset = event_getset,
    .tp_init = event_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* Timeout                                                            */
/* ------------------------------------------------------------------ */

typedef struct {
    EventObject base;
    double delay;
} TimeoutObject;

static int
timeout_init(PyObject *op, PyObject *args, PyObject *kwds)
{
    PyObject *env, *value = Py_None;
    double delay;
    static char *kwlist[] = {"env", "delay", "value", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Od|O:Timeout", kwlist, &env,
                                     &delay, &value))
        return -1;
    if (delay < 0) {
        PyObject *delay_obj = PyFloat_FromDouble(delay);
        if (delay_obj != NULL) {
            PyErr_Format(sim_error(), "negative timeout delay: %S", delay_obj);
            Py_DECREF(delay_obj);
        }
        return -1;
    }
    TimeoutObject *self = (TimeoutObject *)op;
    if (event_init_base(&self->base, env) < 0)
        return -1;
    self->delay = delay;
    Py_XSETREF(self->base.ok, Py_NewRef(Py_True));
    Py_XSETREF(self->base.value, Py_NewRef(value));
    return env_schedule_internal((EnvObject *)env, op, NORMAL_PRIO, delay);
}

static PyMemberDef timeout_members[] = {
    {"delay", T_DOUBLE, offsetof(TimeoutObject, delay), 0,
     "Delay after creation at which the timeout fires."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject Timeout_Type = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.sim._ckern.Timeout",
    .tp_basicsize = sizeof(TimeoutObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "An event that triggers `delay` time units after creation.",
    .tp_members = timeout_members,
    .tp_base = &Event_Type,
    .tp_init = timeout_init,
    /* Static GC types must spell out traverse/clear themselves (the
     * readiness check runs before slot inheritance); the Event pair is
     * exact for Timeout's extra C double. */
    .tp_traverse = event_traverse,
    .tp_clear = event_clear,
};

/* ------------------------------------------------------------------ */
/* Process                                                            */
/* ------------------------------------------------------------------ */

typedef struct {
    EventObject base;
    PyObject *generator;
    PyObject *target; /* event currently waited on, or None */
    PyObject *name;
    PyObject *resume; /* cached bound _resume (identity-stable) */
} ProcessObject;

static PyObject *process_resume(PyObject *op, PyObject *event);

static PyMethodDef process_resume_def = {
    "_resume", process_resume, METH_O,
    "Advance the generator with the outcome of an event.",
};

static int
process_init(PyObject *op, PyObject *args, PyObject *kwds)
{
    PyObject *env, *generator, *name = Py_None;
    static char *kwlist[] = {"env", "generator", "name", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|O:Process", kwlist, &env,
                                     &generator, &name))
        return -1;
    if (!PyObject_HasAttrString(generator, "throw")) {
        PyErr_Format(sim_error(), "process() needs a generator, got %.100s",
                     Py_TYPE(generator)->tp_name);
        return -1;
    }
    ProcessObject *self = (ProcessObject *)op;
    if (event_init_base(&self->base, env) < 0)
        return -1;
    Py_XSETREF(self->generator, Py_NewRef(generator));
    int use_fallback = (name == Py_None);
    if (!use_fallback) {
        int truthy = PyObject_IsTrue(name);
        if (truthy < 0)
            return -1;
        use_fallback = !truthy;
    }
    if (use_fallback) {
        PyObject *gen_name = PyObject_GetAttrString(generator, "__name__");
        if (gen_name == NULL) {
            PyErr_Clear();
            gen_name = PyUnicode_FromString("process");
            if (gen_name == NULL)
                return -1;
        }
        Py_XSETREF(self->name, gen_name);
    }
    else {
        Py_XSETREF(self->name, Py_NewRef(name));
    }
    Py_XSETREF(self->target, Py_NewRef(Py_None));
    if (self->resume == NULL) {
        PyObject *resume = PyCFunction_New(&process_resume_def, op);
        if (resume == NULL)
            return -1;
        self->resume = resume;
    }
    /* _Initialize: a plain URGENT event whose only callback resumes the
     * fresh process (same scheduling as the pure-Python kernel). */
    EventObject *kick =
        (EventObject *)Event_Type.tp_alloc(&Event_Type, 0);
    if (kick == NULL)
        return -1;
    if (event_init_base(kick, env) < 0) {
        Py_DECREF(kick);
        return -1;
    }
    Py_XSETREF(kick->ok, Py_NewRef(Py_True));
    Py_XSETREF(kick->value, Py_NewRef(Py_None));
    if (PyList_Append(kick->callbacks, self->resume) < 0) {
        Py_DECREF(kick);
        return -1;
    }
    int rc = env_schedule_internal((EnvObject *)env, (PyObject *)kick,
                                   URGENT_PRIO, 0.0);
    Py_DECREF(kick);
    return rc;
}

static int
process_traverse(PyObject *op, visitproc visit, void *arg)
{
    ProcessObject *self = (ProcessObject *)op;
    Py_VISIT(self->generator);
    Py_VISIT(self->target);
    Py_VISIT(self->name);
    Py_VISIT(self->resume);
    return event_traverse(op, visit, arg);
}

static int
process_clear(PyObject *op)
{
    ProcessObject *self = (ProcessObject *)op;
    Py_CLEAR(self->generator);
    Py_CLEAR(self->target);
    Py_CLEAR(self->name);
    Py_CLEAR(self->resume);
    return event_clear(op);
}

static void
process_dealloc(PyObject *op)
{
    PyObject_GC_UnTrack(op);
    process_clear(op);
    Py_TYPE(op)->tp_free(op);
}

static PyObject *
process_repr(PyObject *op)
{
    ProcessObject *self = (ProcessObject *)op;
    return PyUnicode_FromFormat("<Process %R %s>", self->name,
                                self->base.value == Pending ? "alive" : "done");
}

static PyObject *
process_get_is_alive(PyObject *op, void *closure)
{
    (void)closure;
    return PyBool_FromLong(((ProcessObject *)op)->base.value == Pending);
}

static PyObject *
process_get_resume(PyObject *op, void *closure)
{
    (void)closure;
    PyObject *resume = ((ProcessObject *)op)->resume;
    /* A finished process no longer caches its callback; hand out a fresh
     * one (identity only matters while the process can be subscribed). */
    if (resume == NULL)
        return PyCFunction_New(&process_resume_def, op);
    return Py_NewRef(resume);
}

static PyObject *
process_interrupt(PyObject *op, PyObject *args, PyObject *kwds)
{
    PyObject *cause = Py_None;
    static char *kwlist[] = {"cause", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O:interrupt", kwlist,
                                     &cause))
        return NULL;
    if (InterruptionCls == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "_ckern not registered");
        return NULL;
    }
    PyObject *interruption =
        PyObject_CallFunctionObjArgs(InterruptionCls, op, cause, NULL);
    if (interruption == NULL)
        return NULL;
    Py_DECREF(interruption);
    Py_RETURN_NONE;
}

/* Finish the process event (generator returned or raised). Then the
 * generator is dropped, so whoever still holds the process (a VM's process
 * list, a parent waiting on it) keeps only the event; it goes after the
 * event is triggered, so any code a closing generator runs sees a finished
 * process. Dropping the cached bound _resume breaks the
 * process -> resume -> process cycle, so a finished process is freed by
 * reference counting, not by the cyclic collector. Dropped last: whoever
 * is calling _resume holds a reference to it, and the heap now holds one
 * to the process. */
static int
process_finish(ProcessObject *self, EnvObject *env, PyObject *ok,
               PyObject *value_stolen)
{
    Py_XSETREF(env->active, Py_NewRef(Py_None));
    Py_XSETREF(self->base.ok, Py_NewRef(ok));
    Py_XSETREF(self->base.value, value_stolen);
    int rc = env_schedule_internal(env, (PyObject *)self, NORMAL_PRIO, 0.0);
    Py_CLEAR(self->generator);
    Py_CLEAR(self->resume);
    return rc;
}

static PyObject *
process_resume(PyObject *op, PyObject *event)
{
    ProcessObject *self = (ProcessObject *)op;
    EnvObject *env = (EnvObject *)self->base.env;
    if (self->generator == NULL) {
        PyErr_Format(sim_error(), "process %R has already finished", self->name);
        return NULL;
    }
    Py_XSETREF(env->active, Py_NewRef(op));

    PyObject *current = Py_NewRef(event);
    for (;;) {
        EventObject *evt = (EventObject *)current;
        PyObject *result = NULL;
        PySendResult sres;
        int truthy = PyObject_IsTrue(evt->ok);
        if (truthy < 0) {
            Py_DECREF(current);
            return NULL;
        }
        if (truthy) {
            sres = PyIter_Send(self->generator, evt->value, &result);
        }
        else {
            evt->defused = 1;
            result = PyObject_CallMethod(self->generator, "throw", "O",
                                         evt->value);
            if (result != NULL) {
                sres = PYGEN_NEXT;
            }
            else if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
                PyObject *etype, *eval, *etb;
                PyErr_Fetch(&etype, &eval, &etb);
                PyErr_NormalizeException(&etype, &eval, &etb);
                result = eval ? PyObject_GetAttrString(eval, "value") : NULL;
                Py_XDECREF(etype);
                Py_XDECREF(eval);
                Py_XDECREF(etb);
                if (result == NULL)
                    result = Py_NewRef(Py_None);
                sres = PYGEN_RETURN;
            }
            else {
                sres = PYGEN_ERROR;
            }
        }
        Py_DECREF(current);

        if (sres == PYGEN_RETURN) {
            if (process_finish(self, env, Py_True, result) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
        if (sres == PYGEN_ERROR) {
            /* Capture the exception instance as the process's failure
             * value (matches `except BaseException as exc`). */
            PyObject *etype, *eval, *etb;
            PyErr_Fetch(&etype, &eval, &etb);
            PyErr_NormalizeException(&etype, &eval, &etb);
            if (eval == NULL)
                eval = Py_NewRef(Py_None);
            if (etb != NULL)
                PyException_SetTraceback(eval, etb);
            Py_XDECREF(etype);
            Py_XDECREF(etb);
            if (process_finish(self, env, Py_False, eval) < 0)
                return NULL;
            Py_RETURN_NONE;
        }

        /* PYGEN_NEXT: the generator yielded `result`. */
        if (!PyObject_TypeCheck(result, &Event_Type)) {
            PyObject *msg = PyUnicode_FromFormat(
                "process %R yielded a non-event: %R", self->name, result);
            Py_DECREF(result);
            if (msg == NULL)
                return NULL;
            PyObject *exc = PyObject_CallFunctionObjArgs(sim_error(), msg, NULL);
            Py_DECREF(msg);
            if (exc == NULL)
                return NULL;
            if (process_finish(self, env, Py_False, exc) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
        EventObject *next_event = (EventObject *)result;
        if (next_event->callbacks != Py_None) {
            /* Still pending (or triggered but unprocessed): subscribe. */
            if (PyList_Check(next_event->callbacks)) {
                if (PyList_Append(next_event->callbacks, self->resume) < 0) {
                    Py_DECREF(result);
                    return NULL;
                }
            }
            else {
                PyObject *rc = PyObject_CallMethod(next_event->callbacks,
                                                   "append", "O", self->resume);
                if (rc == NULL) {
                    Py_DECREF(result);
                    return NULL;
                }
                Py_DECREF(rc);
            }
            Py_XSETREF(self->target, result);
            Py_XSETREF(env->active, Py_NewRef(Py_None));
            Py_RETURN_NONE;
        }
        /* Already processed: feed its outcome straight back in. */
        current = result;
    }
}

static PyMethodDef process_methods[] = {
    {"interrupt", (PyCFunction)(void (*)(void))process_interrupt,
     METH_VARARGS | METH_KEYWORDS,
     "Throw Interrupt into the process as soon as possible."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef process_members[] = {
    {"generator", T_OBJECT, offsetof(ProcessObject, generator), READONLY,
     "The coroutine driven by this process."},
    {"name", T_OBJECT, offsetof(ProcessObject, name), 0, "Process name."},
    {"_target", T_OBJECT, offsetof(ProcessObject, target), 0,
     "Event the process is currently waiting on."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef process_getset[] = {
    {"is_alive", process_get_is_alive, NULL,
     "True while the coroutine has not finished.", NULL},
    {"_resume", process_get_resume, NULL,
     "Identity-stable bound resume callback.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject Process_Type = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.sim._ckern.Process",
    .tp_basicsize = sizeof(ProcessObject),
    .tp_dealloc = process_dealloc,
    .tp_repr = process_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A running coroutine; also an event that triggers when it ends.",
    .tp_traverse = process_traverse,
    .tp_clear = process_clear,
    .tp_methods = process_methods,
    .tp_members = process_members,
    .tp_getset = process_getset,
    .tp_base = &Event_Type,
    .tp_init = process_init,
};

/* ------------------------------------------------------------------ */
/* Environment                                                        */
/* ------------------------------------------------------------------ */

static int
heap_push(EnvObject *env, double when, int prio, long long seq,
          PyObject *event)
{
    if (env->heap_len == env->heap_cap) {
        Py_ssize_t cap = env->heap_cap ? env->heap_cap * 2 : 64;
        HeapEntry *heap = PyMem_Realloc(env->heap, cap * sizeof(HeapEntry));
        if (heap == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        env->heap = heap;
        env->heap_cap = cap;
    }
    HeapEntry *heap = env->heap;
    Py_ssize_t pos = env->heap_len++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        HeapEntry *p = &heap[parent];
        if (p->when < when ||
            (p->when == when &&
             (p->prio < prio || (p->prio == prio && p->seq < seq))))
            break;
        heap[pos] = *p;
        pos = parent;
    }
    heap[pos].when = when;
    heap[pos].prio = prio;
    heap[pos].seq = seq;
    heap[pos].event = Py_NewRef(event);
    return 0;
}

/* Pop the root; caller owns the returned event reference. */
static HeapEntry
heap_pop(EnvObject *env)
{
    HeapEntry *heap = env->heap;
    HeapEntry top = heap[0];
    Py_ssize_t len = --env->heap_len;
    if (len > 0) {
        HeapEntry last = heap[len];
        Py_ssize_t pos = 0;
        for (;;) {
            Py_ssize_t child = 2 * pos + 1;
            if (child >= len)
                break;
            if (child + 1 < len) {
                HeapEntry *a = &heap[child], *b = &heap[child + 1];
                if (b->when < a->when ||
                    (b->when == a->when &&
                     (b->prio < a->prio ||
                      (b->prio == a->prio && b->seq < a->seq))))
                    child += 1;
            }
            HeapEntry *c = &heap[child];
            if (last.when < c->when ||
                (last.when == c->when &&
                 (last.prio < c->prio ||
                  (last.prio == c->prio && last.seq < c->seq))))
                break;
            heap[pos] = *c;
            pos = child;
        }
        heap[pos] = last;
    }
    return top;
}

static int
env_schedule_internal(EnvObject *env, PyObject *event, int prio, double delay)
{
    EventObject *evt = (EventObject *)event;
    if (evt->scheduled) {
        PyObject *repr = PyObject_Repr(event);
        if (repr == NULL)
            return -1;
        PyErr_Format(sim_error(), "%U scheduled twice", repr);
        Py_DECREF(repr);
        return -1;
    }
    evt->scheduled = 1;
    return heap_push(env, env->now + delay, prio, env->seq++, event);
}

static int
env_init(PyObject *op, PyObject *args, PyObject *kwds)
{
    double initial_time = 0.0;
    static char *kwlist[] = {"initial_time", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|d:Environment", kwlist,
                                     &initial_time))
        return -1;
    EnvObject *self = (EnvObject *)op;
    self->now = initial_time;
    self->seq = 0;
    PyObject *pool = PyList_New(0);
    PyObject *tracers = PyList_New(0);
    if (pool == NULL || tracers == NULL) {
        Py_XDECREF(pool);
        Py_XDECREF(tracers);
        return -1;
    }
    Py_XSETREF(self->pool, pool);
    Py_XSETREF(self->tracers, tracers);
    Py_XSETREF(self->active, Py_NewRef(Py_None));
    return 0;
}

static int
env_traverse(PyObject *op, visitproc visit, void *arg)
{
    EnvObject *self = (EnvObject *)op;
    for (Py_ssize_t i = 0; i < self->heap_len; i++)
        Py_VISIT(self->heap[i].event);
    Py_VISIT(self->active);
    Py_VISIT(self->pool);
    Py_VISIT(self->tracers);
    return 0;
}

static int
env_clear(PyObject *op)
{
    EnvObject *self = (EnvObject *)op;
    for (Py_ssize_t i = 0; i < self->heap_len; i++)
        Py_CLEAR(self->heap[i].event);
    self->heap_len = 0;
    Py_CLEAR(self->active);
    Py_CLEAR(self->pool);
    Py_CLEAR(self->tracers);
    return 0;
}

static void
env_dealloc(PyObject *op)
{
    PyObject_GC_UnTrack(op);
    env_clear(op);
    PyMem_Free(((EnvObject *)op)->heap);
    Py_TYPE(op)->tp_free(op);
}

static PyObject *
env_get_now(PyObject *op, void *closure)
{
    (void)closure;
    return PyFloat_FromDouble(((EnvObject *)op)->now);
}

static PyObject *
env_get_active(PyObject *op, void *closure)
{
    (void)closure;
    return Py_NewRef(((EnvObject *)op)->active);
}

static PyObject *
env_event(PyObject *op, PyObject *noarg)
{
    (void)noarg;
    EventObject *event =
        (EventObject *)Event_Type.tp_alloc(&Event_Type, 0);
    if (event == NULL)
        return NULL;
    if (event_init_base(event, op) < 0) {
        Py_DECREF(event);
        return NULL;
    }
    return (PyObject *)event;
}

static PyObject *
timeout_new_internal(EnvObject *env, double delay, PyObject *delay_obj,
                     PyObject *value)
{
    if (delay < 0) {
        PyErr_Format(sim_error(), "negative timeout delay: %S", delay_obj);
        return NULL;
    }
    TimeoutObject *timeout =
        (TimeoutObject *)Timeout_Type.tp_alloc(&Timeout_Type, 0);
    if (timeout == NULL)
        return NULL;
    timeout->delay = delay;
    if (event_init_base(&timeout->base, (PyObject *)env) < 0) {
        Py_DECREF(timeout);
        return NULL;
    }
    Py_XSETREF(timeout->base.ok, Py_NewRef(Py_True));
    Py_XSETREF(timeout->base.value, Py_NewRef(value));
    if (env_schedule_internal(env, (PyObject *)timeout, NORMAL_PRIO, delay) <
        0) {
        Py_DECREF(timeout);
        return NULL;
    }
    return (PyObject *)timeout;
}

static PyObject *
env_timeout(PyObject *op, PyObject *args, PyObject *kwds)
{
    PyObject *delay_obj, *value = Py_None;
    static char *kwlist[] = {"delay", "value", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O:timeout", kwlist,
                                     &delay_obj, &value))
        return NULL;
    double delay = PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    return timeout_new_internal((EnvObject *)op, delay, delay_obj, value);
}

static PyObject *
env_pooled_timeout(PyObject *op, PyObject *args, PyObject *kwds)
{
    PyObject *delay_obj, *value = Py_None;
    static char *kwlist[] = {"delay", "value", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O:pooled_timeout", kwlist,
                                     &delay_obj, &value))
        return NULL;
    double delay = PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    EnvObject *env = (EnvObject *)op;
    Py_ssize_t size = PyList_GET_SIZE(env->pool);
    if (size > 0 && delay >= 0) {
        PyObject *item = PyList_GET_ITEM(env->pool, size - 1);
        Py_INCREF(item);
        if (PyList_SetSlice(env->pool, size - 1, size, NULL) < 0) {
            Py_DECREF(item);
            return NULL;
        }
        TimeoutObject *timeout = (TimeoutObject *)item;
        PyObject *callbacks = PyList_New(0);
        if (callbacks == NULL) {
            Py_DECREF(item);
            return NULL;
        }
        Py_XSETREF(timeout->base.callbacks, callbacks);
        Py_XSETREF(timeout->base.ok, Py_NewRef(Py_True));
        Py_XSETREF(timeout->base.value, Py_NewRef(value));
        timeout->base.defused = 0;
        timeout->base.scheduled = 0;
        timeout->delay = delay;
        if (env_schedule_internal(env, item, NORMAL_PRIO, delay) < 0) {
            Py_DECREF(item);
            return NULL;
        }
        return item;
    }
    return timeout_new_internal(env, delay, delay_obj, value);
}

static PyObject *
env_release_timeout(PyObject *op, PyObject *timeout)
{
    EnvObject *env = (EnvObject *)op;
    if (PyObject_TypeCheck(timeout, &Event_Type) &&
        ((EventObject *)timeout)->callbacks == Py_None &&
        PyList_GET_SIZE(env->pool) < TIMEOUT_POOL_MAX) {
        if (PyList_Append(env->pool, timeout) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
env_process(PyObject *op, PyObject *args, PyObject *kwds)
{
    PyObject *generator, *name = Py_None;
    static char *kwlist[] = {"generator", "name", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O:process", kwlist,
                                     &generator, &name))
        return NULL;
    return PyObject_CallFunctionObjArgs((PyObject *)&Process_Type, op,
                                        generator, name, NULL);
}

static PyObject *
env_all_of(PyObject *op, PyObject *events)
{
    if (AllOfCls == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "_ckern not registered");
        return NULL;
    }
    return PyObject_CallFunctionObjArgs(AllOfCls, op, events, NULL);
}

static PyObject *
env_any_of(PyObject *op, PyObject *events)
{
    if (AnyOfCls == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "_ckern not registered");
        return NULL;
    }
    return PyObject_CallFunctionObjArgs(AnyOfCls, op, events, NULL);
}

static PyObject *
env_schedule(PyObject *op, PyObject *args)
{
    PyObject *event;
    int prio;
    double delay;
    if (!PyArg_ParseTuple(args, "Oid:_schedule", &event, &prio, &delay))
        return NULL;
    if (!PyObject_TypeCheck(event, &Event_Type)) {
        PyErr_SetString(PyExc_TypeError, "_schedule() needs an Event");
        return NULL;
    }
    if (env_schedule_internal((EnvObject *)op, event, prio, delay) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
env_peek(PyObject *op, PyObject *noarg)
{
    (void)noarg;
    EnvObject *env = (EnvObject *)op;
    return PyFloat_FromDouble(env->heap_len ? env->heap[0].when
                                            : Py_HUGE_VAL);
}

/* Process exactly one event. Returns -1 with an exception set on error
 * (including an unhandled event failure). */
static int
env_step_inner(EnvObject *env)
{
    if (env->heap_len == 0) {
        PyErr_SetString(sim_error(), "step() on an empty event heap");
        return -1;
    }
    HeapEntry top = heap_pop(env);
    env->now = top.when;
    EventObject *event = (EventObject *)top.event;
    if (PyList_GET_SIZE(env->tracers) > 0) {
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(env->tracers); i++) {
            PyObject *tracer = Py_NewRef(PyList_GET_ITEM(env->tracers, i));
            PyObject *res = PyObject_CallFunctionObjArgs(
                tracer, (PyObject *)env, (PyObject *)event, NULL);
            Py_DECREF(tracer);
            if (res == NULL) {
                Py_DECREF(top.event);
                return -1;
            }
            Py_DECREF(res);
        }
    }
    PyObject *callbacks = event->callbacks; /* steal */
    event->callbacks = Py_NewRef(Py_None);
    /* Snapshot the outcome first: a callback may recycle the event. */
    PyObject *ok = Py_NewRef(event->ok);
    PyObject *value = Py_NewRef(event->value);
    int rc = 0;
    if (callbacks != NULL && callbacks != Py_None && PyList_Check(callbacks)) {
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(callbacks); i++) {
            PyObject *cb = Py_NewRef(PyList_GET_ITEM(callbacks, i));
            PyObject *res = PyObject_CallOneArg(cb, (PyObject *)event);
            Py_DECREF(cb);
            if (res == NULL) {
                rc = -1;
                break;
            }
            Py_DECREF(res);
        }
    }
    if (rc == 0) {
        int truthy = PyObject_IsTrue(ok);
        if (truthy < 0)
            rc = -1;
        else if (!truthy && !event->defused) {
            /* Nothing handled the failure: surface it to the driver. */
            PyErr_SetObject((PyObject *)Py_TYPE(value), value);
            rc = -1;
        }
    }
    Py_XDECREF(callbacks);
    Py_DECREF(ok);
    Py_DECREF(value);
    Py_DECREF(top.event);
    return rc;
}

static PyObject *
env_step(PyObject *op, PyObject *noarg)
{
    (void)noarg;
    if (env_step_inner((EnvObject *)op) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
env_run(PyObject *op, PyObject *args, PyObject *kwds)
{
    PyObject *until = Py_None;
    static char *kwlist[] = {"until", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O:run", kwlist, &until))
        return NULL;
    EnvObject *env = (EnvObject *)op;

    if (PyObject_TypeCheck(until, &Event_Type)) {
        EventObject *stop = (EventObject *)until;
        if (stop->callbacks != Py_None) {
            while (env->heap_len && stop->callbacks != Py_None) {
                if (env_step_inner(env) < 0)
                    return NULL;
            }
            if (stop->value == Pending) {
                PyErr_SetString(
                    sim_error(),
                    "run(until=event) exhausted the heap before the event "
                    "fired");
                return NULL;
            }
        }
        int truthy = PyObject_IsTrue(stop->ok);
        if (truthy < 0)
            return NULL;
        if (truthy)
            return Py_NewRef(stop->value);
        stop->defused = 1;
        PyErr_SetObject((PyObject *)Py_TYPE(stop->value), stop->value);
        return NULL;
    }

    double deadline;
    if (until == Py_None) {
        deadline = Py_HUGE_VAL;
    }
    else {
        PyObject *as_float = PyNumber_Float(until);
        if (as_float == NULL)
            return NULL;
        deadline = PyFloat_AS_DOUBLE(as_float);
        Py_DECREF(as_float);
        if (deadline != Py_HUGE_VAL && deadline < env->now) {
            PyObject *nowf = PyFloat_FromDouble(env->now);
            if (nowf != NULL) {
                PyErr_Format(sim_error(),
                             "run(until=%S) is in the past (now=%S)", until,
                             nowf);
                Py_DECREF(nowf);
            }
            return NULL;
        }
    }
    while (env->heap_len && env->heap[0].when <= deadline) {
        if (env_step_inner(env) < 0)
            return NULL;
    }
    if (deadline != Py_HUGE_VAL)
        env->now = deadline;
    Py_RETURN_NONE;
}

static PyMethodDef env_methods[] = {
    {"event", env_event, METH_NOARGS,
     "Create a pending event the caller triggers manually."},
    {"timeout", (PyCFunction)(void (*)(void))env_timeout,
     METH_VARARGS | METH_KEYWORDS,
     "Create an event triggering `delay` time units from now."},
    {"pooled_timeout", (PyCFunction)(void (*)(void))env_pooled_timeout,
     METH_VARARGS | METH_KEYWORDS,
     "A Timeout drawn from a free list when possible."},
    {"release_timeout", env_release_timeout, METH_O,
     "Return a processed pooled timeout to the free list."},
    {"process", (PyCFunction)(void (*)(void))env_process,
     METH_VARARGS | METH_KEYWORDS, "Start a coroutine process."},
    {"all_of", env_all_of, METH_O,
     "Event that triggers when every event in `events` has."},
    {"any_of", env_any_of, METH_O,
     "Event that triggers when the first of `events` does."},
    {"_schedule", env_schedule, METH_VARARGS,
     "Schedule an event at now + delay with the given priority."},
    {"peek", env_peek, METH_NOARGS,
     "Time of the next event, or +inf if nothing is scheduled."},
    {"step", env_step, METH_NOARGS, "Process exactly one event."},
    {"run", (PyCFunction)(void (*)(void))env_run,
     METH_VARARGS | METH_KEYWORDS,
     "Run until the heap empties, time `until` passes, or event fires."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef env_members[] = {
    {"tracers", T_OBJECT, offsetof(EnvObject, tracers), 0,
     "Callables invoked as tracer(env, event) before each dispatch."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef env_getset[] = {
    {"now", env_get_now, NULL, "Current virtual time.", NULL},
    {"active_process", env_get_active, NULL,
     "The process currently executing, if any.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject Environment_Type = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.sim._ckern.Environment",
    .tp_basicsize = sizeof(EnvObject),
    .tp_dealloc = env_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The simulation event loop with virtual time (C accelerator).",
    .tp_traverse = env_traverse,
    .tp_clear = env_clear,
    .tp_methods = env_methods,
    .tp_members = env_members,
    .tp_getset = env_getset,
    .tp_init = env_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* Module                                                             */
/* ------------------------------------------------------------------ */

static PyObject *
ckern_register(PyObject *module, PyObject *args, PyObject *kwds)
{
    (void)module;
    PyObject *error, *interruption, *allof, *anyof;
    static char *kwlist[] = {"error", "interruption", "all_of", "any_of", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOO:_register", kwlist,
                                     &error, &interruption, &allof, &anyof))
        return NULL;
    Py_XSETREF(SimError, Py_NewRef(error));
    Py_XSETREF(InterruptionCls, Py_NewRef(interruption));
    Py_XSETREF(AllOfCls, Py_NewRef(allof));
    Py_XSETREF(AnyOfCls, Py_NewRef(anyof));
    Py_RETURN_NONE;
}

static PyMethodDef ckern_methods[] = {
    {"_register", (PyCFunction)(void (*)(void))ckern_register,
     METH_VARARGS | METH_KEYWORDS,
     "Install the Python-side support classes (called by kernel.py)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ckern_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ckern",
    .m_doc = "C accelerator for the discrete-event kernel.",
    .m_size = -1,
    .m_methods = ckern_methods,
};

PyMODINIT_FUNC
PyInit__ckern(void)
{
    if (PyType_Ready(&Event_Type) < 0 || PyType_Ready(&Timeout_Type) < 0 ||
        PyType_Ready(&Process_Type) < 0 ||
        PyType_Ready(&Environment_Type) < 0)
        return NULL;
    Pending = PyObject_CallNoArgs((PyObject *)&PyBaseObject_Type);
    if (Pending == NULL)
        return NULL;
    PyObject *module = PyModule_Create(&ckern_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddObjectRef(module, "Event", (PyObject *)&Event_Type) < 0 ||
        PyModule_AddObjectRef(module, "Timeout", (PyObject *)&Timeout_Type) <
            0 ||
        PyModule_AddObjectRef(module, "Process", (PyObject *)&Process_Type) <
            0 ||
        PyModule_AddObjectRef(module, "Environment",
                              (PyObject *)&Environment_Type) < 0 ||
        PyModule_AddObjectRef(module, "PENDING", Pending) < 0 ||
        PyModule_AddIntConstant(module, "URGENT", URGENT_PRIO) < 0 ||
        PyModule_AddIntConstant(module, "NORMAL", NORMAL_PRIO) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
