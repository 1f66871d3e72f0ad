/* Compiled Bland pivot loop for stacks of dense phase-1 simplex tableaux.
 *
 * Semantically identical to _simplex_py.pivot_batch, the import-time
 * fallback: the same operation order and no fused multiply-add (build with
 * -ffp-contract=off), so both kernels give bit-identical tableaux.  Arrays
 * arrive through the buffer protocol; no numpy headers are needed.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* Pivot the (p+1) x (q+1) row-major tableau T in place; see pivot_batch. */
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

/* Parse (T, basis, eps, max_iter) with T a k x (p+1) x (q+1) float64 stack
   of tableaux and basis a k x p int64 array of their labels; on success the
   caller releases both views. */
static int
parse_args(PyObject *const *args, Py_ssize_t nargs, Py_buffer *tv, Py_buffer *bv,
           double *eps, long long *max_iter)
{
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "pivot_batch takes 4 arguments (%zd given)", nargs);
        return -1;
    }
    *eps = PyFloat_AsDouble(args[2]);
    if (*eps == -1.0 && PyErr_Occurred())
        return -1;
    *max_iter = PyLong_AsLongLong(args[3]);
    if (*max_iter == -1 && PyErr_Occurred())
        return -1;
    if (get_view(args[0], tv, "T", 3, "d", "float64") < 0)
        return -1;
    if (get_view(args[1], bv, "basis", 2, "lq", "int64") < 0) {
        PyBuffer_Release(tv);
        return -1;
    }
    if (tv->shape[1] < 1 || tv->shape[2] < 1)
        PyErr_SetString(PyExc_ValueError, "T needs at least one row and one column");
    else if (bv->shape[0] != tv->shape[0])
        PyErr_Format(PyExc_ValueError, "basis has %zd rows, T has %zd tableaux",
                     bv->shape[0], tv->shape[0]);
    else if (bv->shape[1] != tv->shape[1] - 1)
        PyErr_Format(PyExc_ValueError, "basis has %zd entries, T has %zd constraint rows",
                     bv->shape[1], tv->shape[1] - 1);
    else
        return 0;
    PyBuffer_Release(bv);
    PyBuffer_Release(tv);
    return -1;
}

static PyObject *
pivot_batch(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer tv, bv;
    double eps;
    long long max_iter;
    if (parse_args(args, nargs, &tv, &bv, &eps, &max_iter) < 0)
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
    {"pivot_batch", (PyCFunction)(void (*)(void))pivot_batch, METH_FASTCALL,
     "pivot_batch(T, basis, eps, max_iter) -> list[int]\n\n"
     "Run Bland-rule pivots in place on each tableau of the stack T until\n"
     "it is optimal.  T is k x (p+1) x (q+1) float64: per tableau, p\n"
     "constraint rows, one reduced-cost row, rhs in the last column; basis\n"
     "is k x p int64, the labels of each tableau's basis.  Returns the k\n"
     "statuses: 0 if optimal, 1 if the iteration cap was hit."},
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
