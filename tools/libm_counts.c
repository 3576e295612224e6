/* Counts the libm calls of cascade_droop's C library, for tools/opcount.py.
 *
 * Linked into a copy of the library with
 * -Wl,--wrap=sin,--wrap=cos,--wrap=atan2,--wrap=hypot,--wrap=fmod, each call
 * the library makes to one of these functions reaches its __wrap_ function
 * here, which adds one to its slot of cd_libm_calls and calls through to the
 * libm function.  The library is built with -fno-builtin, so every call in
 * its source is a real call that the wrap sees.
 */

#include <stdint.h>

double __real_sin(double);
double __real_cos(double);
double __real_atan2(double, double);
double __real_hypot(double, double);
double __real_fmod(double, double);

/* sin, cos, atan2, hypot, fmod: the order of opcount.LIBM */
uint64_t cd_libm_calls[5];

double
__wrap_sin(double x)
{
    cd_libm_calls[0]++;
    return __real_sin(x);
}

double
__wrap_cos(double x)
{
    cd_libm_calls[1]++;
    return __real_cos(x);
}

double
__wrap_atan2(double y, double x)
{
    cd_libm_calls[2]++;
    return __real_atan2(y, x);
}

double
__wrap_hypot(double x, double y)
{
    cd_libm_calls[3]++;
    return __real_hypot(x, y);
}

double
__wrap_fmod(double x, double y)
{
    cd_libm_calls[4]++;
    return __real_fmod(x, y);
}
