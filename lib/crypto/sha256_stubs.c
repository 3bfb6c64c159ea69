/* The SHA-256 (FIPS 180-4) compression function under every digest in
   Sha256: record digests, FMH/IMH node hashes, signing digests.

   The chaining state is eight native-endian 32-bit words; the streaming
   interface keeps it in a 32-byte OCaml [bytes]. Two bodies compute the
   same function over n consecutive 64-byte blocks: one on the x86 SHA
   extensions (sha256rnds2/msg1/msg2), one in portable C. The first
   call of aqv_sha256_kernel, made once when the OCaml module is
   initialised, picks the SHA-extension body if CPUID reports SHA,
   SSSE3 and SSE4.1; otherwise, and on every other architecture, the
   portable body runs. No function here allocates on the OCaml heap
   ([@@noalloc]), and none keeps a pointer into one past its return. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

typedef void (*compress_fn)(uint32_t st[8], const uint8_t *p, size_t nblocks);

static const uint32_t K256[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
  0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
  0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
  0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
  0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
  0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

static const uint32_t IV[8] = {
  0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

/* ------------------------------ portable ----------------------------- */

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static inline uint32_t load_be32(const uint8_t *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static void compress_portable(uint32_t st[8], const uint8_t *p, size_t nblocks)
{
  uint32_t w[64];
  int t;
  for (; nblocks > 0; nblocks--, p += 64) {
    uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
    uint32_t e = st[4], f = st[5], g = st[6], h = st[7];
    for (t = 0; t < 16; t++) w[t] = load_be32(p + 4 * t);
    for (t = 16; t < 64; t++) {
      const uint32_t w15 = w[t - 15], w2 = w[t - 2];
      const uint32_t s0 = ROTR(w15, 7) ^ ROTR(w15, 18) ^ (w15 >> 3);
      const uint32_t s1 = ROTR(w2, 17) ^ ROTR(w2, 19) ^ (w2 >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    for (t = 0; t < 64; t++) {
      const uint32_t s1 = ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t t1 = h + s1 + ch + K256[t] + w[t];
      const uint32_t s0 = ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + s0 + maj;
    }
    st[0] += a; st[1] += b; st[2] += c; st[3] += d;
    st[4] += e; st[5] += f; st[6] += g; st[7] += h;
  }
}

/* --------------------------- SHA extensions -------------------------- */

#if defined(__x86_64__)

/* The state travels as two vectors, ABEF and CDGH. Each rnds2 pair runs
   four rounds on one message vector plus its constants; msg1/msg2
   extend the schedule four words at a time, so after group j the
   vector for group j + 1 is ready. */
#define SHA_GROUP(m, j)                                                        \
  do {                                                                         \
    __m128i k_ = _mm_add_epi32(m, _mm_loadu_si128((const __m128i *)&K256[4 * (j)])); \
    s1 = _mm_sha256rnds2_epu32(s1, s0, k_);                                    \
    s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(k_, 0x0E));           \
  } while (0)
/* next <- msg2(next + (cur:prev >> 32), cur) */
#define SHA_MSG2(next, cur, prev) \
  next = _mm_sha256msg2_epu32(_mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur)
#define SHA_MSG1(prev, cur) prev = _mm_sha256msg1_epu32(prev, cur)

__attribute__((target("sha,sse4.1")))
static void compress_shaext(uint32_t st[8], const uint8_t *p, size_t nblocks)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i s0, s1, t, m0, m1, m2, m3, abef, cdgh;

  t = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[0]), 0xB1); /* CDAB */
  s1 = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[4]), 0x1B); /* EFGH */
  s0 = _mm_alignr_epi8(t, s1, 8);       /* ABEF */
  s1 = _mm_blend_epi16(s1, t, 0xF0);    /* CDGH */

  for (; nblocks > 0; nblocks--, p += 64) {
    abef = s0;
    cdgh = s1;
    m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
    m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);

    SHA_GROUP(m0, 0);
    SHA_GROUP(m1, 1);  SHA_MSG1(m0, m1);
    SHA_GROUP(m2, 2);  SHA_MSG1(m1, m2);
    SHA_GROUP(m3, 3);  SHA_MSG2(m0, m3, m2); SHA_MSG1(m2, m3);
    SHA_GROUP(m0, 4);  SHA_MSG2(m1, m0, m3); SHA_MSG1(m3, m0);
    SHA_GROUP(m1, 5);  SHA_MSG2(m2, m1, m0); SHA_MSG1(m0, m1);
    SHA_GROUP(m2, 6);  SHA_MSG2(m3, m2, m1); SHA_MSG1(m1, m2);
    SHA_GROUP(m3, 7);  SHA_MSG2(m0, m3, m2); SHA_MSG1(m2, m3);
    SHA_GROUP(m0, 8);  SHA_MSG2(m1, m0, m3); SHA_MSG1(m3, m0);
    SHA_GROUP(m1, 9);  SHA_MSG2(m2, m1, m0); SHA_MSG1(m0, m1);
    SHA_GROUP(m2, 10); SHA_MSG2(m3, m2, m1); SHA_MSG1(m1, m2);
    SHA_GROUP(m3, 11); SHA_MSG2(m0, m3, m2); SHA_MSG1(m2, m3);
    SHA_GROUP(m0, 12); SHA_MSG2(m1, m0, m3); SHA_MSG1(m3, m0);
    SHA_GROUP(m1, 13); SHA_MSG2(m2, m1, m0);
    SHA_GROUP(m2, 14); SHA_MSG2(m3, m2, m1);
    SHA_GROUP(m3, 15);

    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }

  t = _mm_shuffle_epi32(s0, 0x1B);      /* FEBA */
  s1 = _mm_shuffle_epi32(s1, 0xB1);     /* DCHG */
  s0 = _mm_blend_epi16(t, s1, 0xF0);    /* DCBA */
  s1 = _mm_alignr_epi8(s1, t, 8);       /* HGFE */
  _mm_storeu_si128((__m128i *)&st[0], s0);
  _mm_storeu_si128((__m128i *)&st[4], s1);
}

static int cpu_has_shaext(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b & bit_SHA) != 0;
}

#endif

/* Written once, by aqv_sha256_kernel during module initialisation,
   before any other domain exists. */
static compress_fn compress = compress_portable;

value aqv_sha256_kernel(value unit)
{
  (void)unit;
#if defined(__x86_64__)
  if (cpu_has_shaext()) {
    compress = compress_shaext;
    return Val_int(1);
  }
#endif
  return Val_int(0);
}

/* ------------------------------- padding ----------------------------- */

/* Pad the len < 64 buffered bytes in buf (which it overwrites), run the
   last one or two blocks and write the big-endian digest to out. */
static void finish(compress_fn f, uint32_t st[8], uint8_t buf[64], size_t len,
                   uint64_t total, uint8_t out[32])
{
  const uint64_t bits = total * 8;
  int i;
  buf[len++] = 0x80;
  if (len > 56) {
    memset(buf + len, 0, 64 - len);
    f(st, buf, 1);
    len = 0;
  }
  memset(buf + len, 0, 56 - len);
  for (i = 0; i < 8; i++) buf[56 + i] = (uint8_t)(bits >> (56 - 8 * i));
  f(st, buf, 1);
  for (i = 0; i < 8; i++) {
    out[4 * i] = (uint8_t)(st[i] >> 24);
    out[4 * i + 1] = (uint8_t)(st[i] >> 16);
    out[4 * i + 2] = (uint8_t)(st[i] >> 8);
    out[4 * i + 3] = (uint8_t)st[i];
  }
}

/* Absorb the n bytes at p into the state: top up the len-byte partial
   block in buf, run whole blocks straight from p, keep the rest in buf.
   Returns the new partial length, < 64. */
static size_t absorb(compress_fn f, uint32_t st[8], uint8_t buf[64], size_t len,
                     const uint8_t *p, size_t n)
{
  if (len > 0) {
    const size_t take = n < 64 - len ? n : 64 - len;
    memcpy(buf + len, p, take);
    len += take;
    if (len < 64) return len;
    f(st, buf, 1);
    p += take;
    n -= take;
  }
  if (n >= 64) {
    f(st, p, n / 64);
    p += n & ~(size_t)63;
    n &= 63;
  }
  memcpy(buf, p, n);
  return n;
}

/* The digest of the concatenation of an OCaml string list, into the
   32-byte out; returns the number of bytes hashed. */
static value digest_list(compress_fn f, value parts, value vout)
{
  uint32_t st[8];
  uint8_t buf[64];
  size_t len = 0;
  uint64_t total = 0;
  memcpy(st, IV, sizeof st);
  for (; Is_block(parts); parts = Field(parts, 1)) {
    const value s = Field(parts, 0);
    const size_t n = caml_string_length(s);
    total += n;
    len = absorb(f, st, buf, len, (const uint8_t *)String_val(s), n);
  }
  finish(f, st, buf, len, total, (uint8_t *)Bytes_val(vout));
  return Val_long(total);
}

value aqv_sha256_digest_list(value parts, value vout)
{
  return digest_list(compress, parts, vout);
}

value aqv_sha256_digest_list_portable(value parts, value vout)
{
  return digest_list(compress_portable, parts, vout);
}

/* ------------------------------ streaming ---------------------------- */

value aqv_sha256_init(value vst)
{
  memcpy(Bytes_val(vst), IV, sizeof IV);
  return Val_unit;
}

/* Feed a string to a context's state and partial block; returns the new
   partial length. */
value aqv_sha256_feed(value vst, value vbuf, value vlen, value vs)
{
  return Val_long(absorb(compress, (uint32_t *)Bytes_val(vst), (uint8_t *)Bytes_val(vbuf),
                         (size_t)Long_val(vlen), (const uint8_t *)String_val(vs),
                         caml_string_length(vs)));
}

value aqv_sha256_finish(value vst, value vbuf, value vlen, value vtotal, value vout)
{
  finish(compress, (uint32_t *)Bytes_val(vst), (uint8_t *)Bytes_val(vbuf),
         (size_t)Long_val(vlen), (uint64_t)Long_val(vtotal), (uint8_t *)Bytes_val(vout));
  return Val_unit;
}
