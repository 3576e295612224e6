/* One schedule stretch of cascade_droop's RK4 kernel in one call, bit for bit.
 *
 * cd_rk4_stretch runs steps start .. stop - 1 of one configuration: the
 * stages, the zero-power hold, the clamp and the recorded rows of the
 * generated Python kernel (engine._KERNEL) as engine.simulate drives it.
 * Every operation is the one CPython performs for that kernel, in the same
 * order and through the same libm, so the results agree to the bit:
 *
 *   complex + - *     _Py_c_sum, _Py_c_diff, _Py_c_prod (no fused multiply-add)
 *   complex /         _Py_c_quot
 *   abs(complex)      _Py_c_abs: hypot
 *   cmath.phase       c_atan2: atan2 after its special cases
 *   cmath.rect        (r cos phi, r sin phi), and (r, r phi) at phi == 0
 *   math.remainder    m_remainder
 *
 * Build it with -ffp-contract=off and -fno-builtin, so that the compiler
 * neither fuses a product into an FMA nor replaces a libm call with code of
 * its own (sin and cos with sincos, say).  Where CPython would raise or take
 * a special-value path that is not ported here (a non-finite angle or
 * current), the call returns -1 and leaves the angles and the held
 * measurement as they were; the caller runs the stretch in Python.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    double re, im;
} cpx;

static const double TAU = 6.283185307179586; /* math.tau */

/* cmath.rect(r, phi) for finite r; a non-finite phi sets *bad */
static cpx
rect(double r, double phi, int *bad)
{
    cpx z;
    *bad |= !isfinite(phi);
    if (phi == 0.0) {
        z.re = r;
        z.im = r * phi;
    }
    else {
        z.re = r * cos(phi);
        z.im = r * sin(phi);
    }
    return z;
}

/* abs(z): hypot; a non-finite part or an overflow (OverflowError in CPython) sets *bad */
static double
c_abs(cpx z, int *bad)
{
    double result = hypot(z.re, z.im);
    *bad |= !isfinite(result);
    return result;
}

/* a / b for b != 0, Smith's algorithm as in CPython */
static cpx
c_quot(cpx a, cpx b)
{
    cpx r;
    const double abs_breal = b.re < 0 ? -b.re : b.re;
    const double abs_bimag = b.im < 0 ? -b.im : b.im;

    if (abs_breal >= abs_bimag) {
        const double ratio = b.im / b.re;
        const double denom = b.re + b.im * ratio;
        r.re = (a.re + a.im * ratio) / denom;
        r.im = (a.im - a.re * ratio) / denom;
    }
    else if (abs_bimag >= abs_breal) {
        const double ratio = b.re / b.im;
        const double denom = b.re * ratio + b.im;
        r.re = (a.re * ratio + a.im) / denom;
        r.im = (a.im * ratio - a.re) / denom;
    }
    else {
        r.re = r.im = NAN;
    }
    return r;
}

static cpx
c_prod(cpx a, cpx b)
{
    cpx r;
    r.re = a.re * b.re - a.im * b.im;
    r.im = a.re * b.im + a.im * b.re;
    return r;
}

/* cmath.phase */
static double
c_phase(cpx z)
{
    const double pi = 3.141592653589793;

    if (isnan(z.re) || isnan(z.im))
        return NAN;
    if (isinf(z.im)) {
        if (isinf(z.re)) {
            if (copysign(1., z.re) == 1.)
                return copysign(0.25 * pi, z.im);
            return copysign(0.75 * pi, z.im);
        }
        return copysign(0.5 * pi, z.im);
    }
    if (isinf(z.re) || z.im == 0.) {
        if (copysign(1., z.re) == 1.)
            return copysign(0., z.im);
        return copysign(pi, z.im);
    }
    return atan2(z.im, z.re);
}

/* math.remainder(x, TAU); a non-finite x sets *bad */
static double
wrap(double x, int *bad)
{
    double absx, absy, m, c, r;

    if (!isfinite(x)) {
        *bad = 1;
        return x;
    }
    absx = fabs(x);
    absy = TAU;
    m = fmod(absx, absy);
    c = absy - m;
    if (m < c)
        r = m;
    else if (m > c)
        r = -c;
    else
        r = m - 2.0 * fmod(0.5 * (absx - m), absy);
    return copysign(1.0, x) * r;
}

/* engine._Held.values(): the held values remainder(x_i - arg I, TAU), formed in place from a
   live step boundary's angles on the first read after it */
static void
form_held(double *hv, int64_t n, double arg, int *live, int *bad)
{
    int64_t i;

    if (*live) {
        for (i = 0; i < n; i++)
            hv[i] = wrap(hv[i] - arg, bad);
        *live = 0;
    }
}

/* The constants of engine._bind, in its order, z and the drive split into parts. */
enum { V_STAR, W_STAR, M, PHI_STAR, W_LO, W_HI, Z_RE, Z_IM, DRIVE_RE, DRIVE_IM, DEAD_BAND,
       HALF, DT, SIXTH };

/* Runs steps start .. stop - 1 of an n-module string from deltas and the held measurement.
 *
 * held[i] are the held values while *held_live is 0; otherwise they are the angles of the
 * last live step boundary and *held_arg its arg I, and the held values are
 * remainder(held[i] - *held_arg, TAU), formed where they are read.  Step k is recorded when
 * k % decim == 0 or k == steps, as row (k dt, the stage-1 clamped omegas, P, Q, the held
 * values) of the row-major (rows, 1 + 4 n) table, from row on; the step k == steps only
 * measures.  Returns the row after the last one written, or -1 (nothing written back).
 */
int64_t
cd_rk4_stretch(const double *c, int64_t n, double *deltas, double *held, double *held_arg,
               int32_t *held_live, int64_t start, int64_t stop, int64_t steps, int64_t decim,
               double *table, int64_t rows, int64_t row)
{
    const cpx z = {c[Z_RE], c[Z_IM]};
    const double h[3] = {c[HALF], c[HALF], c[DT]};
    const int64_t width = 1 + 4 * n;
    double *buf, *x, *e, *hv, *w1, *s, *term_re, *term_im;
    double arg = *held_arg;
    int live = *held_live, bad = 0;
    int64_t k, i, j, result = -1;

    if (n < 1 || decim < 1 || start < 0 || stop > steps + 1)
        return -1;
    buf = malloc(sizeof(double) * (size_t)(10 * n));
    if (buf == NULL)
        return -1;
    x = buf;          /* the step's angles */
    e = x + n;        /* the angles of stages 2-4 */
    hv = e + n;       /* the held measurement, as held[] */
    w1 = hv + n;      /* stage 1's clamped omegas */
    s = w1 + n;       /* each stage's slopes omega - omega*, stage j at s + j n */
    term_re = s + 4 * n;  /* the step's voltages rect(V*, x_i) */
    term_im = term_re + n;
    for (i = 0; i < n; i++) {
        x[i] = deltas[i];
        hv[i] = held[i];
    }

    for (k = start; k < stop; k++) {
        cpx total = {0.0, 0.0}, boundary;
        const double *stage = x;

        for (i = 0; i < n; i++) {
            const cpx t = rect(c[V_STAR], x[i], &bad);
            term_re[i] = t.re;
            term_im[i] = t.im;
            total.re = total.re + t.re;
            total.im = total.im + t.im;
        }
        total.re = total.re - c[DRIVE_RE];
        total.im = total.im - c[DRIVE_IM];
        boundary = total;
        for (j = 0; j < 4; j++) {
            double *sj = s + j * n;
            const double *es;
            double base;

            if (c_abs(total, &bad) <= c[DEAD_BAND]) {
                form_held(hv, n, arg, &live, &bad);
                es = hv;
                base = c[PHI_STAR];
            }
            else {
                const double a = c_phase(c_quot(total, z));
                if (j == 0) {
                    for (i = 0; i < n; i++)
                        hv[i] = x[i];
                    arg = a;
                    live = 1;
                }
                es = stage;
                base = a + c[PHI_STAR];
            }
            for (i = 0; i < n; i++) {
                double w = c[W_STAR] - c[M] * wrap(es[i] - base, &bad);
                if (w < c[W_LO])
                    w = c[W_LO];
                else if (w > c[W_HI])
                    w = c[W_HI];
                if (j == 0)
                    w1[i] = w;
                sj[i] = w - c[W_STAR];
            }
            if (j < 3) {
                total.re = total.im = 0.0;
                for (i = 0; i < n; i++) {
                    cpx t;
                    e[i] = x[i] + h[j] * sj[i];
                    t = rect(c[V_STAR], e[i], &bad);
                    total.re = total.re + t.re;
                    total.im = total.im + t.im;
                }
                total.re = total.re - c[DRIVE_RE];
                total.im = total.im - c[DRIVE_IM];
                stage = e;
            }
        }
        if (bad)
            goto done;
        if (k % decim == 0 || k == steps) {
            double *out;
            cpx icon;

            if (row >= rows)
                goto done;
            out = table + row * width;
            icon = c_quot(boundary, z);
            icon.im = -icon.im;
            out[0] = (double)k * c[DT];
            for (i = 0; i < n; i++) {
                const cpx v = {term_re[i], term_im[i]};
                const cpx p = c_prod(v, icon);
                out[1 + i] = w1[i];
                out[1 + n + i] = p.re;
                out[1 + 2 * n + i] = p.im;
            }
            form_held(hv, n, arg, &live, &bad);
            for (i = 0; i < n; i++)
                out[1 + 3 * n + i] = hv[i];
            if (bad)
                goto done;
            row++;
        }
        if (k < steps) {
            for (i = 0; i < n; i++)
                x[i] = x[i] + c[SIXTH] * (s[i] + 2.0 * (s[n + i] + s[2 * n + i]) + s[3 * n + i]);
        }
    }
    for (i = 0; i < n; i++) {
        deltas[i] = x[i];
        held[i] = hv[i];
    }
    *held_arg = arg;
    *held_live = live;
    result = row;
done:
    free(buf);
    return result;
}
