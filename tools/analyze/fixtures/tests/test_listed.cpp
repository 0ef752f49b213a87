// Fixture test that IS listed in CMakeLists.txt (must not be flagged). Its
// call keeps nothing alive: src/report/test_only_fmt.cpp stays dead.
int listed() { return fixture::test_only_width() - 3; }
