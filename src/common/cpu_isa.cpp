#include "common/cpu_isa.hpp"

#include <initializer_list>

namespace isaac::cpu {

bool supported(Isa isa) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  switch (isa) {
    case Isa::avx512:
      return __builtin_cpu_supports("avx512f");
    case Isa::avx2:
      return __builtin_cpu_supports("avx2");
    case Isa::sse2:
      return true;
  }
  return false;
#else
  return isa == Isa::sse2;
#endif
}

Isa widest() {
  static const Isa best = [] {
    for (const Isa isa : {Isa::avx512, Isa::avx2}) {
      if (supported(isa)) return isa;
    }
    return Isa::sse2;
  }();
  return best;
}

const char* name(Isa isa) {
  switch (isa) {
    case Isa::avx512:
      return "avx512";
    case Isa::avx2:
      return "avx2";
    case Isa::sse2:
      return "sse2";
  }
  return "unknown";
}

}  // namespace isaac::cpu
