/* Compiled Bland pivot loop for the dense phase-1 simplex tableau.
 *
 * Semantically identical to _simplex_py.pivot_loop, which is the reference
 * implementation and the import-time fallback: the same operation order and
 * no fused multiply-add (build with -ffp-contract=off), so both kernels give
 * bit-identical tableaux.  Arrays arrive through the buffer protocol; no
 * numpy headers are needed.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* Pivot the (p+1) x (q+1) row-major tableau T in place; see pivot_loop. */
static int
bland(double *T, long long *basis, Py_ssize_t p, Py_ssize_t q, double eps,
      long long max_iter)
{
    const Py_ssize_t w = q + 1;
    for (long long it = 0; it < max_iter; it++) {
        /* entering: smallest pivotable column with negative reduced cost,
           leaving: min ratio, ties by smallest basis label (Bland) */
        Py_ssize_t col = -1, row = -1;
        double best = 0.0;
        for (Py_ssize_t j = 0; j < q; j++) {
            if (!(T[p * w + j] < -eps))
                continue;
            for (Py_ssize_t i = 0; i < p; i++) {
                if (T[i * w + j] > eps) {
                    double ratio = T[i * w + q] / T[i * w + j];
                    if (row < 0 || ratio < best
                        || (ratio == best && basis[i] < basis[row])) {
                        row = i;
                        best = ratio;
                    }
                }
            }
            if (row >= 0) {
                col = j;
                break;
            }
        }
        if (col < 0)
            return 0;
        double *r = T + row * w;
        const double piv = r[col];
        for (Py_ssize_t k = 0; k < w; k++)
            r[k] = r[k] / piv;
        for (Py_ssize_t i = 0; i <= p; i++) {
            double *t = T + i * w;
            const double factor = t[col];
            if (i == row || factor == 0.0)
                continue;
            for (Py_ssize_t k = 0; k < w; k++)
                t[k] = t[k] - factor * r[k];
            t[col] = 0.0;
        }
        basis[row] = col;
    }
    return 1;
}

/* A writable C-contiguous ndim-D view of obj whose 8-byte items have a
   one-letter struct format in fmts; else TypeError/ValueError and -1. */
static int
get_view(PyObject *obj, Py_buffer *v, const char *name, int ndim, const char *fmts,
         const char *dtype)
{
    if (PyObject_GetBuffer(obj, v, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (v->ndim != ndim || v->itemsize != 8 || v->format[0] == '\0'
        || v->format[1] != '\0' || !strchr(fmts, v->format[0]))
        PyErr_Format(PyExc_TypeError, "%s must be a %d-D %s array, got %d-D format '%s'",
                     name, ndim, dtype, v->ndim, v->format);
    else if (!PyBuffer_IsContiguous(v, 'C'))
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous", name);
    else if (v->readonly)
        PyErr_Format(PyExc_ValueError, "%s must be writable", name);
    else
        return 0;
    PyBuffer_Release(v);
    return -1;
}

/* Parse (T, basis, eps, max_iter) with T an ndim-D float64 stack of
   (p+1) x (q+1) tableaux and basis an (ndim-1)-D int64 array of p labels
   per tableau; on success the caller releases both views. */
static int
parse_args(PyObject *const *args, Py_ssize_t nargs, const char *name, int ndim,
           Py_buffer *tv, Py_buffer *bv, double *eps, long long *max_iter)
{
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "%s takes 4 arguments (%zd given)", name, nargs);
        return -1;
    }
    *eps = PyFloat_AsDouble(args[2]);
    if (*eps == -1.0 && PyErr_Occurred())
        return -1;
    *max_iter = PyLong_AsLongLong(args[3]);
    if (*max_iter == -1 && PyErr_Occurred())
        return -1;
    if (get_view(args[0], tv, "T", ndim, "d", "float64") < 0)
        return -1;
    if (get_view(args[1], bv, "basis", ndim - 1, "lq", "int64") < 0) {
        PyBuffer_Release(tv);
        return -1;
    }
    const Py_ssize_t *ts = tv->shape + ndim - 2, *bs = bv->shape + ndim - 2;
    if (ts[0] < 1 || ts[1] < 1)
        PyErr_SetString(PyExc_ValueError, "T needs at least one row and one column");
    else if (ndim == 3 && bv->shape[0] != tv->shape[0])
        PyErr_Format(PyExc_ValueError, "basis has %zd rows, T has %zd tableaux",
                     bv->shape[0], tv->shape[0]);
    else if (ndim == 2 ? bs[0] < ts[0] - 1 : bs[0] != ts[0] - 1)
        PyErr_Format(PyExc_ValueError, "basis has %zd entries, T has %zd constraint rows",
                     bs[0], ts[0] - 1);
    else
        return 0;
    PyBuffer_Release(bv);
    PyBuffer_Release(tv);
    return -1;
}

static PyObject *
pivot_loop(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer tv, bv;
    double eps;
    long long max_iter;
    if (parse_args(args, nargs, "pivot_loop", 2, &tv, &bv, &eps, &max_iter) < 0)
        return NULL;
    int status = bland(tv.buf, bv.buf, tv.shape[0] - 1, tv.shape[1] - 1, eps, max_iter);
    PyBuffer_Release(&bv);
    PyBuffer_Release(&tv);
    return PyLong_FromLong(status);
}

static PyObject *
pivot_batch(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer tv, bv;
    double eps;
    long long max_iter;
    if (parse_args(args, nargs, "pivot_batch", 3, &tv, &bv, &eps, &max_iter) < 0)
        return NULL;
    const Py_ssize_t k = tv.shape[0], p = tv.shape[1] - 1, q = tv.shape[2] - 1;
    PyObject *status = PyList_New(k);
    for (Py_ssize_t s = 0; status != NULL && s < k; s++) {
        PyObject *st = PyLong_FromLong(bland((double *)tv.buf + s * (p + 1) * (q + 1),
                                             (long long *)bv.buf + s * p, p, q, eps,
                                             max_iter));
        if (st == NULL)
            Py_CLEAR(status);
        else
            PyList_SET_ITEM(status, s, st);
    }
    PyBuffer_Release(&bv);
    PyBuffer_Release(&tv);
    return status;
}

static PyMethodDef methods[] = {
    {"pivot_loop", (PyCFunction)(void (*)(void))pivot_loop, METH_FASTCALL,
     "pivot_loop(T, basis, eps, max_iter) -> int\n\n"
     "Run Bland-rule pivots on tableau T in place until optimal.  T is\n"
     "(p+1) x (q+1) float64: p constraint rows, one reduced-cost row, rhs in\n"
     "the last column; basis holds p int64 labels.  Returns 0 if optimal,\n"
     "1 if the iteration cap was hit."},
    {"pivot_batch", (PyCFunction)(void (*)(void))pivot_batch, METH_FASTCALL,
     "pivot_batch(T, basis, eps, max_iter) -> list[int]\n\n"
     "pivot_loop on each tableau of the k x (p+1) x (q+1) float64 stack T,\n"
     "with its row of the k x p int64 basis; returns the k statuses."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_simplex",
    .m_doc = "Compiled Bland pivot loop.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__simplex(void)
{
    return PyModule_Create(&module);
}
