/* Compiled inner loops: common-product lag correlation and the single-pole
 * IIR filter. Classic (plain-product) correlation is not here: np.correlate
 * is faster than a sequential-order loop, so every backend uses it.
 *
 * Hand-written against the CPython buffer protocol; the only numpy use is
 * numpy.empty for the result arrays. Inputs must be 1-D C-contiguous
 * float64 buffers; anything else raises TypeError or ValueError instead of
 * being read as raw memory. The loops run without the GIL and keep no
 * state between calls.
 *
 * Build with -ffp-contract=off and without -ffast-math: every sum below is
 * meant to round exactly as the sequential order written here, which a
 * fused multiply-add or a reassociation would change.
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

/* Borrow obj as a 1-D C-contiguous float64 buffer; 0 on success. */
static int get_doubles(PyObject *obj, Py_buffer *view, int flags, const char *name)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != sizeof(double) || strcmp(view->format, "d") != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s must be a 1-D native float64 array", name);
        return -1;
    }
    return 0;
}

/* A new float64 ndarray of n elements, exposed writable through out. */
static PyObject *new_doubles(Py_ssize_t n, Py_buffer *out)
{
    PyObject *arr = PyObject_CallFunction(np_empty, "n", n);
    if (arr != NULL && get_doubles(arr, out, PyBUF_WRITABLE, "result") < 0)
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
"inputs the result is bitwise that of the plain sequential loop.");

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
    if (get_doubles(fo, &fv, PyBUF_SIMPLE, "f") < 0)
        return NULL;
    if (get_doubles(go, &gv, PyBUF_SIMPLE, "g") < 0) {
        PyBuffer_Release(&fv);
        return NULL;
    }
    Py_ssize_t nf = fv.shape[0], ng = gv.shape[0], nlag = lag_hi - lag_lo + 1;
    double *gr = PyMem_Calloc((size_t)ng + 2 * (BLOCK - 1), sizeof(double));
    res = gr == NULL ? PyErr_NoMemory() : new_doubles(nlag, &ov);
    if (res != NULL) {
        const double *g = gv.buf;
        for (Py_ssize_t m = 0; m < ng; m++)
            gr[(BLOCK - 1) + m] = g[ng - 1 - m];
        Py_BEGIN_ALLOW_THREADS
        xcorr_common_loop(fv.buf, nf, gr, ng, lag_lo, nlag, ov.buf);
        Py_END_ALLOW_THREADS
        PyBuffer_Release(&ov);
    }
    PyMem_Free(gr);
    PyBuffer_Release(&gv);
    PyBuffer_Release(&fv);
    return res;
}

PyDoc_STRVAR(lowpass_doc,
"lowpass($module, x, alpha, /)\n--\n\n"
"Single-pole IIR: y[n] = y[n-1] + alpha * (x[n] - y[n-1]), y[-1] = 0.");

static PyObject *lowpass(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *xo, *res;
    double alpha;
    Py_buffer xv, ov;
    if (!PyArg_ParseTuple(args, "Od:lowpass", &xo, &alpha))
        return NULL;
    if (get_doubles(xo, &xv, PyBUF_SIMPLE, "x") < 0)
        return NULL;
    Py_ssize_t n = xv.shape[0];
    res = new_doubles(n, &ov);
    if (res != NULL) {
        const double *x = xv.buf;
        double *out = ov.buf, y = 0.0;
        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t i = 0; i < n; i++) {
            y += alpha * (x[i] - y);
            out[i] = y;
        }
        Py_END_ALLOW_THREADS
        PyBuffer_Release(&ov);
    }
    PyBuffer_Release(&xv);
    return res;
}

static PyMethodDef core_methods[] = {
    {"xcorr_common", xcorr_common, METH_VARARGS, xcorr_common_doc},
    {"lowpass", lowpass, METH_VARARGS, lowpass_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_core",
    .m_doc = "Compiled inner loops: common-product lag correlation and the single-pole IIR filter.",
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
