/* One schedule stretch of cascade_droop's RK4 kernel in one call, bit for bit.
 *
 * cd_rk4_stretch runs steps start .. stop - 1 of one configuration: the
 * stages, the zero-power hold, the clamp and the recorded rows of the
 * Python kernel engine._stretch, which takes and returns the same values,
 * for any n.
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
 * Three kinds of libm call are skipped where their result is known exactly
 * without them: the dead-band test does not call hypot where a part of the
 * sum is above the band and below 2^1000 (see dead), wrap calls fmod only
 * from 2 TAU up, and a module whose angle has its left neighbour's bits
 * takes that neighbour's rect term and clamped omega, with no sin, cos or
 * fmod of its own (see fresh).  A settled string's modules share one angle
 * to the bit.  The angles are compared as bits, not with ==, because rect
 * keeps the sign of a zero angle: -0.0 and 0.0 give different terms.
 *
 * Build it with -ffp-contract=off and -fno-builtin, so that the compiler
 * neither fuses a product into an FMA nor replaces a libm call with code of
 * its own (sin and cos with sincos, say).  fabs and copysign, which only
 * clear or copy a sign bit, are asked for inline as __builtin_fabs and
 * __builtin_copysign in the loop.  Where CPython would raise or take
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

/* abs(z) <= band, as CPython decides it.  hypot(a, b) is never below max(|a|, |b|), so a sum
   whose larger part is above the band is live without the call; a part that is not finite or
   not below 2^1000, where hypot could overflow, and every sum whose parts are both at or below
   the band go through c_abs and its *bad. */
static int
dead(cpx z, double band, int *bad)
{
    const double a = __builtin_fabs(z.re), b = __builtin_fabs(z.im), big = 0x1p1000;

    if (a < big && b < big && (a > band || b > band))
        return 0;
    return c_abs(z, bad) <= band;
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

/* math.remainder(x, TAU); a non-finite x sets *bad.  fmod(|x|, TAU) is |x| below TAU, and
   |x| - TAU below 2 TAU, where the subtraction is exact (Sterbenz); so fmod is called only from
   2 TAU up.  The bound is strict: at |x| = 2 TAU fmod gives 0, and |x| - TAU would give TAU. */
static double
wrap(double x, int *bad)
{
    double absx, absy, m, c, r;

    if (!isfinite(x)) {
        *bad = 1;
        return x;
    }
    absx = __builtin_fabs(x);
    absy = TAU;
    if (absx < absy)
        m = absx;
    else if (absx < 2.0 * absy)
        m = absx - absy;
    else
        m = fmod(absx, absy);
    c = absy - m;
    if (m < c)
        r = m;
    else if (m > c)
        r = -c;
    else
        r = m - 2.0 * fmod(0.5 * (absx - m), absy);
    return __builtin_copysign(1.0, x) * r;
}

/* Whether a[i] needs terms of its own: i is 0, or a[i]'s 64 bits differ from a[i - 1]'s.  Not
   a[i] != a[i - 1], which takes -0.0 for 0.0 */
static int
fresh(const double *a, int64_t i)
{
    uint64_t x, y;

    if (i == 0)
        return 1;
    __builtin_memcpy(&x, a + i, sizeof x);
    __builtin_memcpy(&y, a + i - 1, sizeof y);
    return x != y;
}

/* The held values remainder(x_i - arg I, TAU), formed in place from a live step boundary's
   angles on the first read after it: a zero-current stage, a recorded row or the stretch's end */
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

/* Runs steps start .. stop - 1 of an n-module string from deltas and the held values held.
 *
 * A live step boundary keeps its angles in the held buffer and its arg I in arg; the held
 * values remainder(x_i - arg, TAU) are formed where they are read.  Step k is recorded when
 * k % decim == 0 or k == steps, as row (k dt, the stage-1 clamped omegas, P, Q, the held
 * values) of the row-major (rows, 1 + 4 n) table, from row on; the step k == steps only
 * measures.  Writes back the angles and the held values after the stretch, and returns the
 * row after the last one written, or -1 (nothing written back).
 */
int64_t
cd_rk4_stretch(const double *c, int64_t n, double *deltas, double *held, int64_t start,
               int64_t stop, int64_t steps, int64_t decim, double *table, int64_t rows,
               int64_t row)
{
    const cpx z = {c[Z_RE], c[Z_IM]}, drive = {c[DRIVE_RE], c[DRIVE_IM]};
    const double v_star = c[V_STAR], w_star = c[W_STAR], m = c[M], phi_star = c[PHI_STAR];
    const double w_lo = c[W_LO], w_hi = c[W_HI], band = c[DEAD_BAND], sixth = c[SIXTH];
    const double h[3] = {c[HALF], c[HALF], c[DT]};
    const int64_t width = 1 + 4 * n;
    double *buf, *x, *e, *hv, *w1, *s, *term_re, *term_im;
    double arg = 0.0;
    int live = 0, bad = 0;
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
        cpx total = {0.0, 0.0}, boundary, t = {0.0, 0.0};
        const double *stage = x;

        /* each sum runs in module order; a module that is not fresh adds its neighbour's t */
        for (i = 0; i < n; i++) {
            if (fresh(x, i))
                t = rect(v_star, x[i], &bad);
            term_re[i] = t.re;
            term_im[i] = t.im;
            total.re = total.re + t.re;
            total.im = total.im + t.im;
        }
        total.re = total.re - drive.re;
        total.im = total.im - drive.im;
        boundary = total;
        for (j = 0; j < 4; j++) {
            double *sj = s + j * n;
            const double *es;
            double base, w = 0.0;

            if (dead(total, band, &bad)) {
                form_held(hv, n, arg, &live, &bad);
                es = hv;
                base = phi_star;
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
                base = a + phi_star;
            }
            for (i = 0; i < n; i++) {
                if (fresh(es, i)) {
                    w = w_star - m * wrap(es[i] - base, &bad);
                    if (w < w_lo)
                        w = w_lo;
                    else if (w > w_hi)
                        w = w_hi;
                }
                if (j == 0)
                    w1[i] = w;
                sj[i] = w - w_star;
            }
            if (j < 3) {
                total.re = total.im = 0.0;
                for (i = 0; i < n; i++) {
                    e[i] = x[i] + h[j] * sj[i];
                    if (fresh(e, i))
                        t = rect(v_star, e[i], &bad);
                    total.re = total.re + t.re;
                    total.im = total.im + t.im;
                }
                total.re = total.re - drive.re;
                total.im = total.im - drive.im;
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
                x[i] = x[i] + sixth * (s[i] + 2.0 * (s[n + i] + s[2 * n + i]) + s[3 * n + i]);
        }
    }
    form_held(hv, n, arg, &live, &bad);
    if (bad)
        goto done;
    for (i = 0; i < n; i++) {
        deltas[i] = x[i];
        held[i] = hv[i];
    }
    result = row;
done:
    free(buf);
    return result;
}
