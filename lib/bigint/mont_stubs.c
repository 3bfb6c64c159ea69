/* The Montgomery product under every modular exponentiation in
   Bigint.mod_pow_mont.

   Operands are n native-endian 64-bit limbs, least significant first,
   stored in OCaml [bytes] of length 8n. One call computes
   dst <- a * b * R^-1 mod m for a, b < m, R = 2^(64n), with n0 =
   -m^-1 mod 2^64, by coarsely integrated operand scanning (CIOS):
   each outer step adds a * b_i and the multiple q * m that clears the
   accumulator's low limb, then shifts it down one limb. The
   accumulator stays below a + m < 2m, so one limb above n holds its
   carry and one conditional subtract finishes.
   The accumulator lives on the C stack, so dst may alias a or b and the
   function allocates nothing on the OCaml heap ([@@noalloc]).

   The body is written once, in [mont_mul_n]. [aqv_mont_mul] inlines it
   with a constant n for the limb counts our keys use (4: RSA-512's CRT
   halves and keygen's 256-bit primes; 8: the 512-bit RSA modulus and
   DSA's p), so the compiler unrolls both loops and keeps the operands
   in registers, and with the runtime n for every other size. It is the
   same algorithm on every path. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

/* Bigint.mont refuses moduli above 8192 bits. */
#define MONT_MAX_LIMBS 128

typedef unsigned __int128 u128;

static inline __attribute__((always_inline)) void
mont_mul_n(uint64_t *d, const uint64_t *a, const uint64_t *b, const uint64_t *m,
           uint64_t n0, size_t n)
{
  uint64_t t[MONT_MAX_LIMBS];
  uint64_t top = 0; /* limb n of the accumulator */
  size_t i, j;

  memset(t, 0, n * sizeof(uint64_t));
#pragma GCC unroll 8
  for (i = 0; i < n; i++) {
    const uint64_t bi = b[i];
    u128 s, u;
    uint64_t ca, cm, q;
    /* t = (t + a * b_i + q * m) / 2^64, with q chosen to clear limb 0;
       the two carry chains run side by side in one pass over the limbs */
    s = (u128)a[0] * bi + t[0];
    ca = (uint64_t)(s >> 64);
    q = (uint64_t)s * n0;
    u = (u128)q * m[0] + (uint64_t)s;
    cm = (uint64_t)(u >> 64);
#pragma GCC unroll 8
    for (j = 1; j < n; j++) {
      s = (u128)a[j] * bi + t[j] + ca;
      ca = (uint64_t)(s >> 64);
      u = (u128)q * m[j] + (uint64_t)s + cm;
      cm = (uint64_t)(u >> 64);
      t[j - 1] = (uint64_t)u;
    }
    s = (u128)top + ca + cm;
    t[n - 1] = (uint64_t)s;
    top = (uint64_t)(s >> 64);
  }
  /* t < 2m: one conditional subtract */
  if (top == 0) {
    i = n;
    while (i > 0 && t[i - 1] == m[i - 1]) i--;
    if (i > 0 && t[i - 1] < m[i - 1]) {
      memcpy(d, t, n * sizeof(uint64_t));
      return;
    }
  }
  {
    uint64_t borrow = 0;
    for (j = 0; j < n; j++) {
      const uint64_t x = t[j], y = m[j];
      const uint64_t r = x - y - borrow;
      borrow = (x < y) | ((x == y) & borrow);
      d[j] = r;
    }
  }
}

value aqv_mont_mul(value vdst, value va, value vb, value vm, int64_t vn0)
{
  uint64_t *d = (uint64_t *)Bytes_val(vdst);
  const uint64_t *a = (const uint64_t *)Bytes_val(va);
  const uint64_t *b = (const uint64_t *)Bytes_val(vb);
  const uint64_t *m = (const uint64_t *)Bytes_val(vm);
  const uint64_t n0 = (uint64_t)vn0;
  /* caml_string_length(vm) / 8, without a call into the runtime */
  const mlsize_t bsize = Bosize_val(vm);
  const size_t n = (bsize - 1 - (unsigned char)Byte(vm, bsize - 1)) / 8;

  switch (n) {
  case 4: mont_mul_n(d, a, b, m, n0, 4); break;
  case 8: mont_mul_n(d, a, b, m, n0, 8); break;
  default: mont_mul_n(d, a, b, m, n0, n); break;
  }
  return Val_unit;
}

value aqv_mont_mul_byte(value vdst, value va, value vb, value vm, value vn0)
{
  return aqv_mont_mul(vdst, va, vb, vm, Int64_val(vn0));
}
