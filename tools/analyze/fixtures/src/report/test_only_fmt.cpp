// Fixture for dead-symbol: test_only_width's one caller is
// tests/test_listed.cpp, and tests are not liveness roots, so it must be
// flagged.
namespace fixture {

int test_only_width() { return 3; }

}  // namespace fixture
