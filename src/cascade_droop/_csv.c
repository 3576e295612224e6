/* Trace CSV rows in C: every value printed as CPython's format(x, ".9g") prints it.
 *
 * cd_csv_rows prints rows of a row-major table of doubles, values separated by ','
 * and each row ended by '\n'.  A value x = M 2^E (M the 53-bit significand) with
 * k = floor(log10 |x|) prints the 9 digits of N = round-half-even(|x| 10^(8 - k)),
 * which are computed exactly in 128-bit integers: fixed-precision printing as in
 * Adams, "Ryu revisited: printf floating point conversion" (OOPSLA 2019), cut down to
 * one precision and one range of magnitudes.  Where q = 8 - k >= 0 the product M 5^q
 * is shifted right by -E - q; otherwise M 2^E is divided by 10^-q.  Either way the
 * remainder is exact, so a tie is seen as one and goes to the even N.  An N of 10^9
 * (a rounding carry at 999,999,999.5) is 10^8 of the next decade.  N is printed in
 * %g's fixed style where -4 <= k < 9 and in its exponent style otherwise, trailing
 * zeros stripped, as CPython prints it.  Where the shift -E - q is below 64 (from about
 * |x| >= 2^-28 on) the quotient and remainder are taken in 64-bit halves.  N's digits are
 * one digit and four pairs read from a 200-byte table, and they go out in fixed-width
 * copies that stay within the 16 bytes a value and its separator may take.
 *
 * The exact range is +-0 and 2^-79 <= |x| < 2^120, where 5^q < 2^75, 10^-q < 2^94
 * and every product and dividend fits in 128 bits.  Any other value (not finite,
 * subnormal, or outside the range) is declined, and so is every value where the
 * compiler has no 128-bit integer: the call stops before the row that holds it, and
 * the caller prints that row itself.
 */

#include <math.h>
#include <stdint.h>

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL,
    1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL,
    30517578125ULL, 152587890625ULL, 762939453125ULL, 3814697265625ULL,
    19073486328125ULL, 95367431640625ULL, 476837158203125ULL, 2384185791015625ULL,
    11920928955078125ULL, 59604644775390625ULL, 298023223876953125ULL,
    1490116119384765625ULL, 7450580596923828125ULL};

static const uint64_t POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL, 1000000000000ULL,
    10000000000000ULL, 100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL, 10000000000000000000ULL};

/* m 2^e 10^q rounded half to even, for 0 <= q <= 32 or -28 <= q < 0 */
static uint64_t
scaled(uint64_t m, int e, int q)
{
    u128 t, r, half;

    if (q >= 0) {
        /* m 5^q 2^(e + q), and e + q <= -25 wherever q >= 0 */
        const int s = -(e + q);
        const u128 p = (u128)m * (q < 28 ? POW5[q] : (u128)POW5[27] * POW5[q - 27]);
        if (s < 64) {  /* from about |x| >= 2^-28 on: quotient, remainder and half fit 64 bits */
            const uint64_t lo = (uint64_t)p, hi = (uint64_t)(p >> 64);
            const uint64_t t64 = lo >> s | hi << (64 - s);
            const uint64_t r64 = lo & ((1ULL << s) - 1), half64 = 1ULL << (s - 1);
            /* | and & where || and && would branch, which mispredicts on half the values */
            return t64 + ((r64 > half64) | ((r64 == half64) & (t64 & 1)));
        }
        t = p >> s;
        r = p & (((u128)1 << s) - 1);
        half = (u128)1 << (s - 1);
    }
    else {
        const u128 ten = -q < 20 ? POW10[-q] : (u128)POW10[19] * POW10[-q - 19];
        const u128 num = e >= 0 ? (u128)m << e : m;
        const u128 den = e >= 0 ? ten : ten << -e;
        t = num / den;
        r = (num % den) * 2;
        half = den;
    }
    return (uint64_t)t + (r > half || (r == half && (t & 1)));
}

/* |x| = *n 10^(*k - 8) with 10^8 <= *n < 10^9, or *n = 0 for +-0; returns 0 where x is
   declined */
static int
digits(double x, uint32_t *n, int *k)
{
    union {
        double d;
        uint64_t u;
    } bits = {x};
    const int e2 = (int)((bits.u >> 52) & 0x7ff) - 1023;
    const uint64_t m = (bits.u & ((1ULL << 52) - 1)) | (1ULL << 52);
    uint64_t t;

    if (x == 0.0) {
        *n = 0;
        return 1;
    }
    if (e2 < -79 || e2 >= 120)  /* subnormals have e2 == -1023, inf and nan 1024 */
        return 0;
    *k = (e2 * 78913) >> 18;  /* floor(e2 log10 2) here, so floor(log10 |x|) is it or one more */
    t = scaled(m, e2 - 52, 8 - *k);
    if (t >= 1000000000ULL) {  /* the next decade, or a carry at 999,999,999.5 */
        *k += 1;
        t = scaled(m, e2 - 52, 8 - *k);
    }
    *n = (uint32_t)t;
    return 1;
}
#else
static int
digits(double x, uint32_t *n, int *k)
{
    (void)x, (void)n, (void)k;
    return 0;
}
#endif

/* "00" .. "99" */
static const char PAIRS[200] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

/* Prints x at p as format(x, ".9g") does; returns the end, or NULL where x is declined.
 * The digits go out in fixed-width copies that may write past the end they return, but never
 * past 16 bytes from where x starts, which is all a value and its separator may take. */
static char *
put(char *p, double x)
{
    char d[16];  /* the 9 digits, then zeros that the fixed-width copies may read */
    uint32_t n, low, hi, lo;
    int k, count;

    if (!digits(x, &n, &k))
        return 0;
    if (signbit(x))
        *p++ = '-';
    if (n == 0) {
        *p++ = '0';
        return p;
    }
    low = n % 100000000;
    hi = low / 10000;
    lo = low % 10000;
    d[0] = (char)('0' + n / 100000000);
    __builtin_memcpy(d + 1, PAIRS + 2 * (hi / 100), 2);
    __builtin_memcpy(d + 3, PAIRS + 2 * (hi % 100), 2);
    __builtin_memcpy(d + 5, PAIRS + 2 * (lo / 100), 2);
    __builtin_memcpy(d + 7, PAIRS + 2 * (lo % 100), 2);
    __builtin_memcpy(d + 9, "0000000", 7);
    for (count = 9; d[count - 1] == '0'; count--)
        ;
    if (k < -4 || k >= 9) {  /* d.ddddddddde+kk: 1 + 10 + 4 bytes at most */
        p[0] = d[0];
        p[1] = '.';
        __builtin_memcpy(p + 2, d + 1, 8);
        p += count > 1 ? count + 1 : 1;
        p[0] = 'e';
        p[1] = k < 0 ? '-' : '+';
        __builtin_memcpy(p + 2, PAIRS + 2 * (k < 0 ? -k : k), 2);  /* |k| < 100 in the range */
        return p + 4;
    }
    if (k < 0) {  /* 0.000ddddddddd: 1 + 5 + 9 bytes at most */
        __builtin_memcpy(p, "0.000", 5);
        p += 1 - k;
        __builtin_memcpy(p, d, 9);
        return p + count;
    }
    /* ddd.dddddd: the digits past count are the stripped zeros */
    __builtin_memcpy(p, d, 9);
    if (count <= k + 1)
        return p + k + 1;
    p[k + 1] = '.';
    if (k < 6)  /* up to k + 10 <= 15 bytes past p */
        __builtin_memcpy(p + k + 2, d + k + 1, 8);
    else  /* 8 - k <= 2 digits after the point */
        __builtin_memcpy(p + k + 2, d + k + 1, 2);
    return p + count + 1;
}

/* Prints rows *row .. stop - 1 of a row-major table of width values per row into out,
 * which holds 16 bytes per value: "-1.23456789e+36" and its separator are the longest.
 * Stops before a row that holds a declined value; *row is then that row, else stop.
 * Returns the bytes written.
 */
int64_t
cd_csv_rows(const double *table, int64_t width, int64_t *row, int64_t stop, char *out)
{
    char *p = out;
    int64_t r, i;

    for (r = *row; r < stop; r++) {
        const double *v = table + r * width;
        char *const start = p;

        for (i = 0; i < width; i++) {
            p = put(p, v[i]);
            if (p == 0) {
                *row = r;
                return start - out;
            }
            *p++ = i + 1 < width ? ',' : '\n';
        }
    }
    *row = stop;
    return p - out;
}
