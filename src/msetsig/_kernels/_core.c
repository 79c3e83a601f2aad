/* Compiled inner loops: common-product lag correlation, the single-pole IIR
 * filter and the simulator's elementwise behaviours on delayed inputs. Classic
 * correlation is np.correlate on every backend: it is faster than a loop in
 * sequential order. Hand-written against the CPython buffer protocol; the
 * only numpy use is numpy.empty for xcorr_common's result, since lowpass and
 * delayed_op write into arrays the caller passes. Inputs must be C-contiguous
 * native float64 (delays: int64) buffers of the documented dimensions;
 * anything else raises TypeError or ValueError instead of being read as raw
 * memory. The loops run without the GIL and keep no state between calls.
 *
 * Build with -ffp-contract=off and without -ffast-math: every double sum
 * below is meant to round exactly as the sequential order written here, which
 * a fused multiply-add or a reassociation would change. Common correlation of
 * whole numbers runs on int16 copies instead, magnitudes and +-1 signs in
 * separate arrays, each term min(|a|,|b|) * (sa*sb) summed in int32. Every
 * such sum is exact, so the compiler may vectorise it in any order (with plain
 * SSE2, pminsw and pmaddwd) and the result is still bitwise the sequential
 * double loop's.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Lags evaluated together, each in its own accumulator. */
#define BLOCK 8

/* numpy.empty, looked up once at import and never rebound. */
static PyObject *np_empty;

/* sign(a)*sign(b)*min(|a|,|b|) with the sign applied as a sign-bit XOR.
 * This differs from the sign(0) = +1 rule only when the minimum is zero,
 * where it may return -0.0 instead of +0.0; see xcorr_common_loop for why that
 * never changes a sum. */
static inline double common_term(double a, double b)
{
    double fa = fabs(a), fb = fabs(b);
    double m = fa < fb ? fa : fb;
    uint64_t ua, ub, um;
    memcpy(&ua, &a, sizeof ua);
    memcpy(&ub, &b, sizeof ub);
    memcpy(&um, &m, sizeof um);
    um ^= (ua ^ ub) & UINT64_C(0x8000000000000000);
    memcpy(&m, &um, sizeof m);
    return m;
}

/* out[idx] = sum over i of common_term(f[i], g[i - k]), k = lag_lo + idx,
 * in ascending i.
 *
 * gr is g reversed and padded with BLOCK-1 zeros on each side, so the BLOCK
 * lags k0..k0+BLOCK-1 read one contiguous run of gr per sample of f:
 * g[i - k0 - j] is gr[off - i + j]. Each block runs i over the union of its
 * lags' overlaps, so a lag also sees padding terms of ±0.0 outside its own
 * overlap. Those leave every sum bitwise unchanged: an accumulator starts
 * at +0.0, and under round-to-nearest a sum that starts at +0.0 never
 * becomes -0.0, so adding a zero of either sign is the identity. */
static void xcorr_common_loop(const double *f, Py_ssize_t nf, const double *gr, Py_ssize_t ng,
                              Py_ssize_t lag_lo, Py_ssize_t nlag, double *out)
{
    for (Py_ssize_t b = 0; b < nlag; b += BLOCK) {
        Py_ssize_t k0 = lag_lo + b;
        double acc[BLOCK] = {0.0};
        if (k0 < nf) {
            Py_ssize_t lo = k0 > 0 ? k0 : 0;
            Py_ssize_t hi = k0 + (BLOCK - 1) + (ng - 1);
            Py_ssize_t off = (BLOCK - 1) + (ng - 1) + k0;
            if (hi > nf - 1)
                hi = nf - 1;
            for (Py_ssize_t i = lo; i <= hi; i++) {
                const double a = f[i], *row = gr + (off - i);
                for (int j = 0; j < BLOCK; j++)
                    acc[j] += common_term(a, row[j]);
            }
        }
        Py_ssize_t n = nlag - b < BLOCK ? nlag - b : BLOCK;
        memcpy(out + b, acc, (size_t)n * sizeof(double));
    }
}

/* The largest |x[i]| if every x[i] is a whole number of magnitude <= 32767; otherwise -1,
 * returned at the first other sample. */
static double whole_max(const double *x, Py_ssize_t n)
{
    double top = 0.0;
    for (Py_ssize_t i = 0; i < n; i++) {
        double a = fabs(x[i]);
        if (!(a <= 32767.0) || a != (double)(int32_t)a)
            return -1.0;
        top = a > top ? a : top;
    }
    return top;
}

/* xcorr_common_loop on whole numbers of magnitude <= 32767, split into w (2 * (nf + ng) int16):
 * the magnitudes of f and g, then their +-1 signs (a zero's sign never counts: its min is 0).
 * Each lag sums min(|a|,|b|) * (sa*sb) over its own overlap in an int32. No term exceeds the
 * smaller of the two largest magnitudes, so the caller's bound keeps every partial sum, in any
 * order, from overflowing. The double loop's sums are exact too and equal these (each partial
 * sum is an integer below 2^53), and a zero sum is +0.0 on both. */
static void xcorr_whole_loop(const double *f, Py_ssize_t nf, const double *g, Py_ssize_t ng, int16_t *w,
                             Py_ssize_t lag_lo, Py_ssize_t nlag, double *out)
{
    const Py_ssize_t n = nf + ng;
    const int16_t *fm = w, *gm = w + nf, *fs = w + n, *gs = w + n + nf;
    for (Py_ssize_t i = 0; i < n; i++) {
        double x = i < nf ? f[i] : g[i - nf];
        w[i] = (int16_t)fabs(x);
        w[n + i] = x < 0.0 ? -1 : 1;
    }
    for (Py_ssize_t idx = 0; idx < nlag; idx++) {
        Py_ssize_t k = lag_lo + idx, lo = k > 0 ? k : 0, hi = k + ng < nf ? k + ng : nf;
        int32_t acc = 0;
        for (Py_ssize_t i = lo; i < hi; i++) {
            int16_t a = fm[i], b = gm[i - k], m = a < b ? a : b;
            acc += (int32_t)m * (int16_t)(fs[i] * gs[i - k]);
        }
        out[idx] = acc;
    }
}

/* Borrow obj as an ndim-D C-contiguous native float64 (if ints, int64) buffer; 0 on success. */
static int get_array(PyObject *obj, Py_buffer *view, int flags, int ndim, int ints, const char *name)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    const char *f = view->format;
    if (view->ndim != ndim || view->itemsize != 8 || (ints ? strcmp(f, "l") && strcmp(f, "q") : strcmp(f, "d"))) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s must be a %d-D native %s array", name, ndim, ints ? "int64" : "float64");
        return -1;
    }
    return 0;
}

/* A new float64 ndarray of shape (n,), exposed writable through out. */
static PyObject *new_doubles(Py_ssize_t n, Py_buffer *out)
{
    PyObject *arr = PyObject_CallFunction(np_empty, "n", n);
    if (arr != NULL && get_array(arr, out, PyBUF_WRITABLE, 1, 0, "result") < 0)
        Py_CLEAR(arr);
    return arr;
}

PyDoc_STRVAR(xcorr_common_doc,
"xcorr_common($module, f, g, lag_lo, lag_hi, /)\n--\n\n"
"Sum of the common product sign(a)*sign(b)*min(|a|,|b|) over the overlap,\n"
"for each lag.\n\n"
"Lag k aligns g[i - k] with f[i]; samples outside either signal contribute\n"
"nothing. Returns one value per lag in [lag_lo, lag_hi]; the caller\n"
"applies the dt scale. Each lag is summed in ascending i, so for finite\n"
"inputs the result is bitwise that of the plain sequential loop. When every\n"
"sample is a whole number of magnitude <= 32767 and min(len(f), len(g)) *\n"
"min(max|f|, max|g|) <= 2**31 - 1, the sums run in int32 over int16\n"
"magnitudes and +-1 signs held in separate arrays. No term exceeds the\n"
"smaller maximum, so no partial sum overflows in any order; the sums are\n"
"exact and give those same bits.");

static PyObject *xcorr_common(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *fo, *go, *res;
    Py_ssize_t lag_lo, lag_hi;
    Py_buffer fv, gv, ov;
    if (!PyArg_ParseTuple(args, "OOnn:xcorr_common", &fo, &go, &lag_lo, &lag_hi))
        return NULL;
    /* the bounds keep k0 + BLOCK + ng and the lag count from overflowing */
    if (lag_lo < -PY_SSIZE_T_MAX / 4 || lag_hi > PY_SSIZE_T_MAX / 4 || lag_hi < lag_lo - 1) {
        PyErr_SetString(PyExc_ValueError, "lag range out of bounds");
        return NULL;
    }
    if (get_array(fo, &fv, PyBUF_SIMPLE, 1, 0, "f") < 0)
        return NULL;
    if (get_array(go, &gv, PyBUF_SIMPLE, 1, 0, "g") < 0) {
        PyBuffer_Release(&fv);
        return NULL;
    }
    Py_ssize_t nf = fv.shape[0], ng = gv.shape[0], nlag = lag_hi - lag_lo + 1;
    const double *f = fv.buf, *g = gv.buf;
    /* whole numbers whose partial sums, each at most min(nf, ng) terms, fit an int32 */
    double fmax = whole_max(f, nf), gmax = fmax < 0.0 ? -1.0 : whole_max(g, ng);
    int whole = gmax >= 0.0 && (double)(nf < ng ? nf : ng) * (fmax < gmax ? fmax : gmax) <= INT32_MAX;
    void *work = whole ? PyMem_Malloc(2 * ((size_t)nf + (size_t)ng) * sizeof(int16_t))
                       : PyMem_Calloc((size_t)ng + 2 * (BLOCK - 1), sizeof(double));
    res = work == NULL ? PyErr_NoMemory() : new_doubles(nlag, &ov);
    if (res != NULL) {
        double *gr = work;
        for (Py_ssize_t m = 0; !whole && m < ng; m++)
            gr[(BLOCK - 1) + m] = g[ng - 1 - m];
        Py_BEGIN_ALLOW_THREADS
        if (whole)
            xcorr_whole_loop(f, nf, g, ng, work, lag_lo, nlag, ov.buf);
        else
            xcorr_common_loop(f, nf, gr, ng, lag_lo, nlag, ov.buf);
        Py_END_ALLOW_THREADS
        PyBuffer_Release(&ov);
    }
    PyMem_Free(work);
    PyBuffer_Release(&gv);
    PyBuffer_Release(&fv);
    return res;
}

PyDoc_STRVAR(lowpass_doc,
"lowpass($module, x, alpha, /)\n--\n\n"
"Single-pole IIR along each row of x, a writable C-contiguous (rows, n) float64\n"
"array, in place: y[n] = y[n-1] + alpha * (x[n] - y[n-1]), y[-1] = 0. Returns x.");

static PyObject *lowpass(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *xo;
    double alpha;
    Py_buffer xv;
    if (!PyArg_ParseTuple(args, "Od:lowpass", &xo, &alpha))
        return NULL;
    if (get_array(xo, &xv, PyBUF_WRITABLE, 2, 0, "x") < 0)
        return NULL;
    Py_ssize_t rows = xv.shape[0], n = xv.shape[1];
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t r = 0; r < rows; r++) {
        double *x = (double *)xv.buf + r * n, y = 0.0;
        for (Py_ssize_t i = 0; i < n; i++) {
            y += alpha * (x[i] - y);
            x[i] = y;
        }
    }
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&xv);
    Py_INCREF(xo);
    return xo;
}

/* The simulator's elementwise ops by code; an unknown name's arity -1 matches no input count. */
enum { OP_DELAY, OP_INVERT, OP_COMPARATOR, OP_EQUIVALENCE, OP_SWITCH, OP_SUMMER, N_OPS };
static const char *const op_names[N_OPS] = {"delay", "inverting_amp", "comparator",
                                            "equivalence_gate", "analog_switch", "summer"};
static const Py_ssize_t op_arity[N_OPS + 1] = {1, 1, 2, 2, 3, 2, -1};

static inline double apply(int op, double p, double q, double x, double y, double z)
{
    switch (op) {
    case OP_DELAY: return x;
    case OP_INVERT: return -x;
    case OP_COMPARATOR: return x >= y ? p : q;
    case OP_EQUIVALENCE: return (x >= 0.0) == (y >= 0.0) ? p : q;
    case OP_SWITCH: return z >= 0.5 * (p + q) ? x : y;
    default: return p * x + q * y;
    }
}

PyDoc_STRVAR(delayed_op_doc,
"delayed_op($module, op, ins, steps, p, q, out, /)\n--\n\n"
"Row r at sample t is op on its inputs at t - steps[r], which read 0.0 before the start:\n"
"delay x, inverting_amp -x, comparator x >= y ? p : q, equivalence_gate (x >= 0) == (y >= 0)\n"
"? p : q, analog_switch z >= (p + q) / 2 ? x : y, summer p*x + q*y. steps is nonempty and\n"
"nonnegative int64, each input (rows, n) float64 of 1 or len(steps) rows, and the result,\n"
"len(steps) rows, is written to out and out returned: a writable C-contiguous float64 array\n"
"of that shape that overlaps no input.");

/* The samples from t = d on; with a constant op, apply compiles to one loop per behaviour. */
#define ROW_CASE(k) case k: for (; t < n; t++) o[t] = apply(k, p, q, in[0][t - d], in[1][t - d], in[2][t - d]); break;

/* Every row of delayed_op, from v: the steps, then the inputs. Out of line on purpose: inlined
 * into delayed_op, the row loop's state spills from registers and a row takes 1.7-1.9x as long. */
static Py_NO_INLINE void delayed_rows(int op, double p, double q, const Py_buffer *v, double *out)
{
    const int64_t *steps = v[0].buf;
    const Py_ssize_t rows = v[0].shape[0], n = v[1].shape[1];
    const double lead = apply(op, p, q, 0.0, 0.0, 0.0); /* every sample before the delay */
    for (Py_ssize_t r = 0; r < rows; r++) {
        const double *in[3];
        for (int i = 0; i < 3; i++) { /* an op's unused inputs read its first */
            const Py_buffer *b = &v[i < op_arity[op] ? i + 1 : 1];
            in[i] = (const double *)b->buf + (b->shape[0] == 1 ? 0 : r * n);
        }
        double *restrict o = out + r * n;
        const Py_ssize_t d = steps[r] < n ? (Py_ssize_t)steps[r] : n;
        Py_ssize_t t;
        for (t = 0; t < d; t++)
            o[t] = lead;
        switch (op) { ROW_CASE(OP_DELAY) ROW_CASE(OP_INVERT) ROW_CASE(OP_COMPARATOR)
                      ROW_CASE(OP_EQUIVALENCE) ROW_CASE(OP_SWITCH) ROW_CASE(OP_SUMMER) }
    }
}

static PyObject *delayed_op(PyObject *Py_UNUSED(module), PyObject *args)
{
    const char *name;
    PyObject *ino, *so, *seq, *outo, *res = NULL;
    double p, q;
    Py_buffer v[4], ov; /* the steps, then the inputs */
    Py_ssize_t held = 0, rows, r, i;
    const int64_t *steps;
    int op = 0, bad = 0;
    if (!PyArg_ParseTuple(args, "sOOddO:delayed_op", &name, &ino, &so, &p, &q, &outo))
        return NULL;
    if ((seq = PySequence_Fast(ino, "ins must be a sequence of arrays")) == NULL)
        return NULL;
    while (op < N_OPS && strcmp(name, op_names[op]) != 0)
        op++;
    if (PySequence_Fast_GET_SIZE(seq) != op_arity[op]) {
        PyErr_Format(PyExc_ValueError, "%s is not an op of %zd inputs", name, PySequence_Fast_GET_SIZE(seq));
        goto done;
    }
    for (; held <= op_arity[op]; held++) {
        PyObject *obj = held == 0 ? so : PySequence_Fast_GET_ITEM(seq, held - 1);
        if (get_array(obj, &v[held], PyBUF_SIMPLE, held == 0 ? 1 : 2, held == 0, held ? "each input" : "steps") < 0)
            goto done;
    }
    for (steps = v[0].buf, rows = v[0].shape[0], r = 0; r < rows; r++)
        bad |= steps[r] < 0;
    for (i = 1; i <= op_arity[op]; i++)
        bad |= (v[i].shape[0] != 1 && v[i].shape[0] != rows) || v[i].shape[1] != v[1].shape[1];
    if (rows == 0 || bad) {
        PyErr_SetString(PyExc_ValueError, "need nonempty steps >= 0, inputs of one length and 1 or len(steps) rows");
        goto done;
    }
    if (get_array(outo, &ov, PyBUF_WRITABLE, 2, 0, "out") < 0)
        goto done;
    for (i = 0; i <= op_arity[op]; i++) /* no byte of out may be one that the call reads */
        bad |= (char *)ov.buf < (char *)v[i].buf + v[i].len && (char *)v[i].buf < (char *)ov.buf + ov.len;
    if (bad || ov.shape[0] != rows || ov.shape[1] != v[1].shape[1])
        PyErr_SetString(PyExc_ValueError, "out must have the result's shape and overlap no input");
    else {
        Py_BEGIN_ALLOW_THREADS
        delayed_rows(op, p, q, v, ov.buf);
        Py_END_ALLOW_THREADS
        Py_INCREF(res = outo);
    }
    PyBuffer_Release(&ov);
done:
    while (held > 0)
        PyBuffer_Release(&v[--held]);
    Py_DECREF(seq);
    return res;
}

static PyMethodDef core_methods[] = {
    {"xcorr_common", xcorr_common, METH_VARARGS, xcorr_common_doc},
    {"lowpass", lowpass, METH_VARARGS, lowpass_doc},
    {"delayed_op", delayed_op, METH_VARARGS, delayed_op_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_core",
    .m_doc = "Compiled inner loops: common-product correlation, low-pass and delayed simulator ops.",
    .m_size = -1,
    .m_methods = core_methods,
};

PyMODINIT_FUNC PyInit__core(void)
{
    PyObject *numpy = PyImport_ImportModule("numpy");
    if (numpy == NULL)
        return NULL;
    Py_XSETREF(np_empty, PyObject_GetAttrString(numpy, "empty"));
    Py_DECREF(numpy);
    return np_empty == NULL ? NULL : PyModule_Create(&core_module);
}
