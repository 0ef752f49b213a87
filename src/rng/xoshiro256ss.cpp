#include "rng/xoshiro256ss.hpp"

#include "rng/splitmix64.hpp"

namespace hcsched::rng {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

// kJumpPow[k] = x^(2^(128+k)) mod P(x), where P is the degree-256
// characteristic polynomial of the state transition; bit b of word w is the
// coefficient of x^(64w+b). Derived offline: Berlekamp-Massey over bit 0 of
// s[0] yields P, and each level is the square of the previous one mod P,
// starting from x squared 128 times (which is the published jump constant).
// tests/test_xoshiro.cpp pins level 0 to that constant and every level k+1
// to level k applied twice, through jump() and jump(2^k).
constexpr std::array<std::array<std::uint64_t, 4>, 64> kJumpPow = {{
    {{0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
     0x39abdc4529b1661cULL}},  // 0
    {{0x8cfe9bd9ab71d992ULL, 0xccfc8ca2814de79eULL, 0xa5a28cccb37dba5bULL,
     0xa23e49ee6f1a7a8dULL}},  // 1
    {{0x1b2a94a672a48c05ULL, 0x5e38f4fbb6fcda72ULL, 0xca8a45310219dc67ULL,
     0xd4e9921bccb8090bULL}},  // 2
    {{0xf30974a2b1dbbb71ULL, 0x34cd4cc8228d74acULL, 0xfa0587a90f717438ULL,
     0xee658f69deb5df26ULL}},  // 3
    {{0xb42bd4670583b289ULL, 0xd2c0d8e0c8a2fb9bULL, 0x2573e3218d8bb7daULL,
     0xd7aaaf48aa459c58ULL}},  // 4
    {{0xf6a5ab84efb67883ULL, 0xcc7efdcfed1ac303ULL, 0xd82be75b83dbc2d0ULL,
     0x8fd437c01abeab24ULL}},  // 5
    {{0xc85ee5171484f5a4ULL, 0xedc8b8d02a22310bULL, 0xb0b87a330b854c8aULL,
     0x7d16742eceb4d5abULL}},  // 6
    {{0x4298ba0e862a6007ULL, 0x4157dc48443e3565ULL, 0x13c97c0891cab48aULL,
     0x6533981804b420eaULL}},  // 7
    {{0xee5f5a6f02dfe47cULL, 0xedc28c89cb341660ULL, 0x613b2ed9f0acc107ULL,
     0xa1ee335d14807ae0ULL}},  // 8
    {{0x5ec3050c6b43565aULL, 0x4b26f71c1fb1b47bULL, 0x0531513e8e0ac706ULL,
     0x799d469b2145a8a3ULL}},  // 9
    {{0x34f0a6799020283eULL, 0x7123f2290a1f413bULL, 0xb6acd7be4906b73dULL,
     0x6007bb31ec5a2964ULL}},  // 10
    {{0xaa0711c54877febdULL, 0x54fe6df4cff0db73ULL, 0x7e42d6f544840499ULL,
     0xec907801890a47abULL}},  // 11
    {{0x03833e601d82a673ULL, 0x3ec263f5c999196eULL, 0xd8c4367e574ab160ULL,
     0x964e9d188c16508eULL}},  // 12
    {{0xd64f3f2aaf8f2171ULL, 0xf524fd4408357a5cULL, 0x15ac212f3b861b5aULL,
     0x24d9ba21277dd8d8ULL}},  // 13
    {{0xfe9b778d7d1ca2deULL, 0xbbe0e2c0c44b2e1cULL, 0x17a7af3e97d8c402ULL,
     0xf89354cfe1e6b5fbULL}},  // 14
    {{0x695cf225704e767dULL, 0xf4873d277cd1ab72ULL, 0xaad8c318bc459cceULL,
     0xb89526857566cd94ULL}},  // 15
    {{0x3dcd32f39276a95fULL, 0xc51212c8b1aa2787ULL, 0x962c90a866ea6719ULL,
     0xb81875d0f4f6f253ULL}},  // 16
    {{0xb43cf8e4eaf8e068ULL, 0x1c554e97b2277f47ULL, 0xa5a140826c351d07ULL,
     0x11495a1b200d4eb8ULL}},  // 17
    {{0x417b73b324735d32ULL, 0xff957b6f55288048ULL, 0x05af69bf1fb82891ULL,
     0x3e53bfa0db28e110ULL}},  // 18
    {{0xb6c7a6004612889cULL, 0xfdb3f4ea18f0a56bULL, 0xd3da65e82bdd39e2ULL,
     0x48f6214560239b46ULL}},  // 19
    {{0xf1267ba0ec3c645eULL, 0xd9dc0929a54fea75ULL, 0xec60b640d685171dULL,
     0xde364ef64a484f59ULL}},  // 20
    {{0x2761cbab38e0f580ULL, 0xd7f1c5ade3de404aULL, 0xcb6286958a9af01aULL,
     0x2b29c7d3ef18d3b3ULL}},  // 21
    {{0x5a5ce93f67a3cdd6ULL, 0x547db3576511edc2ULL, 0x99455c744595c01fULL,
     0x6a3b6a431109e3d1ULL}},  // 22
    {{0xafd80c1c832a739eULL, 0x0d9d73da9f40f374ULL, 0xed1d0a619aa60748ULL,
     0x00d2333b0c03f620ULL}},  // 23
    {{0x11428ceb13f2cc2cULL, 0xef46e42368baead3ULL, 0x2a47bd3fc39081daULL,
     0x3f03458e0273439bULL}},  // 24
    {{0x47558e815c898e8bULL, 0x9f8160e9d0124398ULL, 0x0fdcfd4ab0f5afeeULL,
     0xade2626c292a2a9fULL}},  // 25
    {{0xe848ff06d72a9252ULL, 0xf8be2d3d6ce206b0ULL, 0xd84fc5f798c1a55eULL,
     0xc35abe5cebab1ba4ULL}},  // 26
    {{0xb0dd0edb19af078cULL, 0xee1d857a675ca074ULL, 0x60ef7116e6f3c1e0ULL,
     0x7c25b2c3282fb730ULL}},  // 27
    {{0xb51a19064886308aULL, 0x6b590805d407e77eULL, 0x57059d3707ee283aULL,
     0x6298f48fa13cc12fULL}},  // 28
    {{0x4f1102acb29c3230ULL, 0xcf69cee6182fa164ULL, 0x1780be415c86b5d5ULL,
     0xab5d0760d1fe77dcULL}},  // 29
    {{0xc639b7c24b26ef11ULL, 0xa57d650a8007d505ULL, 0xd81275131f4f91f8ULL,
     0x10000e5f7bf7a58bULL}},  // 30
    {{0x295b23eaa04478edULL, 0xf1d3279f36823213ULL, 0x743eedc2ede6d478ULL,
     0x09d89163f581d1e0ULL}},  // 31
    {{0xc04b4f9c5d26c200ULL, 0x69e6e6e431a2d40bULL, 0x4823b45b89dc689cULL,
     0xf567382197055bf0ULL}},  // 32
    {{0x09f16c9da06c8a66ULL, 0xf32c270b20ce5f38ULL, 0xbe61763d20685d37ULL,
     0xda01b157a2b021e9ULL}},  // 33
    {{0xc6d70a8c6aec7778ULL, 0xaccd356978aafc8eULL, 0xa1fbf40a9936c15dULL,
     0x9d7c0c2cf565896cULL}},  // 34
    {{0x90c526d9d0b6773fULL, 0x327a229ce1248578ULL, 0xfbdcc8828b2c1889ULL,
     0x592056e6bbf026f6ULL}},  // 35
    {{0xa14aaaccc2890705ULL, 0xe63e390ab5f8a1a5ULL, 0x0fbd392d992b9686ULL,
     0x746ea463d01f96a4ULL}},  // 36
    {{0xd8cd74de1850f135ULL, 0x441424d88baa1859ULL, 0xb4bb676b08602d23ULL,
     0x4d1dc582c66946beULL}},  // 37
    {{0x2adbc6211da0644cULL, 0x994b90f8d7149b3dULL, 0x4b145a211d1fdfdfULL,
     0x621c1b93e8fa1183ULL}},  // 38
    {{0x2fd0c3d604d53cdfULL, 0x340889c14a3c5736ULL, 0x7bd5128045929790ULL,
     0xfaf3fe8684e4e611ULL}},  // 39
    {{0x01e53e1bc659d517ULL, 0x5f15699d4848bfccULL, 0x6d8bf975dcc01074ULL,
     0x4a55ccb047f7ed1fULL}},  // 40
    {{0x71ce8d56b9692c38ULL, 0x629372507db35e61ULL, 0xefcb70ac050d5190ULL,
     0x929a14fdb0efb0b5ULL}},  // 41
    {{0x27d627035f8c74a5ULL, 0xe890fcbab799d186ULL, 0xde5841dcae8e37bbULL,
     0xcf9e9a1026630265ULL}},  // 42
    {{0xb405010a26f11c18ULL, 0xfd3a5a8b24565256ULL, 0x9d53ec478a607c58ULL,
     0xbfbcf2e3dee7abfaULL}},  // 43
    {{0xb072a316838de4eeULL, 0x8f148500f69fe8f8ULL, 0xbc2ad4d4d5a4ecb8ULL,
     0x20d9430de74248c9ULL}},  // 44
    {{0x732bd9e5c94b916aULL, 0xa0851e63a9ec247cULL, 0x63eb42892a0f4361ULL,
     0x6db40995b68e4c68ULL}},  // 45
    {{0xe87d88258b7992ceULL, 0xb38ada6d1a5427baULL, 0x29f4387fbb3eebe2ULL,
     0x08543e7ab4077f43ULL}},  // 46
    {{0x6735bb34738c34f7ULL, 0x0a1db90231a55a32ULL, 0x7f05b87543072eb8ULL,
     0x2281c456455c4a6dULL}},  // 47
    {{0x053ff7e4e8581163ULL, 0x0b4df9e68366344aULL, 0x259022fe05f4023eULL,
     0x2432aaa71d816e63ULL}},  // 48
    {{0xfc89e47923390d01ULL, 0x81690de70406c5b2ULL, 0xdcdf361320fa2c0bULL,
     0x065e8192b0d9e2abULL}},  // 49
    {{0x54ae81c77079738dULL, 0xe3da1faabf2f681dULL, 0xfac68c11fe1e596cULL,
     0x6f46880c9915650eULL}},  // 50
    {{0x9350f3f8897dc5ccULL, 0x3ac1fea4d54d0710ULL, 0x70f4ef60d5dd3890ULL,
     0x8de6f3aa90cec548ULL}},  // 51
    {{0xe7b23f10622b3386ULL, 0xc22f28a3d0afc80bULL, 0xcb5512bde4e7bf59ULL,
     0xf930e902851defa3ULL}},  // 52
    {{0xcaefa30f55ce5c0fULL, 0x7bf0fe15bdc9337fULL, 0x7a55e55bbd72fb81ULL,
     0xb05640b794289f31ULL}},  // 53
    {{0x30121e7a60194d6aULL, 0xb8b27bb7572d2871ULL, 0x61d6cf653e616a08ULL,
     0x0fa65f166fbb0db4ULL}},  // 54
    {{0x646fe4bfa600d564ULL, 0x3444a78d93dffc9aULL, 0x1c46fb7ea0484857ULL,
     0x7a974830be953c4aULL}},  // 55
    {{0x0ffabb6c5ce8d644ULL, 0xbe489e3f8ac41534ULL, 0xb8f35b514eb14767ULL,
     0x7691957a691df817ULL}},  // 56
    {{0x5b16024d0563a65aULL, 0x83f997e75e88067fULL, 0xa9c11c5aaf2cab97ULL,
     0x57f44892a2ad86eaULL}},  // 57
    {{0xa6c7eee290c62375ULL, 0x7fe5c232f064f464ULL, 0x947c9b3af027e791ULL,
     0x6062e8c7dc309cb2ULL}},  // 58
    {{0x038e07e40a2812e1ULL, 0x52a29a371c84710fULL, 0x4c5bac1c57856ed7ULL,
     0x2629bab11c98b6aeULL}},  // 59
    {{0x637242c48b99b633ULL, 0x3e3494a05f161ecdULL, 0xc3f6fbf07e464327ULL,
     0xaaa38210dde97c64ULL}},  // 60
    {{0xc4d01c7eb078fd29ULL, 0xc188ca2c76798705ULL, 0x81d165297d239d2aULL,
     0xd6e3b368fb2a3110ULL}},  // 61
    {{0x7f90ffb775c02726ULL, 0xacfe2b03b09803d0ULL, 0x5a70368075759194ULL,
     0x6309de7dbb3bf59dULL}},  // 62
    {{0xf0f03027dfdc22d5ULL, 0x902b0ee66222acc7ULL, 0x78a3e873f00291edULL,
     0xdb9d6b2d354321b4ULL}},  // 63
}};

}  // namespace

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) noexcept {
  SplitMix64 sm{seed};
  for (auto& word : s_) word = sm.next();
  // An all-zero state is the one forbidden fixed point; SplitMix64 cannot
  // produce four consecutive zeros from any seed, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Xoshiro256ss::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256ss::jump() noexcept { apply(kJumpPow[0]); }

void Xoshiro256ss::jump(std::uint64_t count) noexcept {
  for (std::size_t k = 0; count != 0; ++k, count >>= 1) {
    if (count & 1) apply(kJumpPow[k]);
  }
}

// Replaces the state s by poly(T)(s), T being one step of next(): the
// XOR of T^j(s) over the set bits j of `poly`.
void Xoshiro256ss::apply(const std::array<std::uint64_t, 4>& poly) noexcept {
  std::array<std::uint64_t, 4> acc{};
  for (std::uint64_t word : poly) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s_[i];
      }
      next();
    }
  }
  s_ = acc;
}

}  // namespace hcsched::rng
