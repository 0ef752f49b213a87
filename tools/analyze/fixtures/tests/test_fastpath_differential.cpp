// Fixture differential suite: names covered_kernel so the
// fastpath-differential rule treats that file as tested.
//
// covers: covered_kernel.cpp
int main() { return 0; }
