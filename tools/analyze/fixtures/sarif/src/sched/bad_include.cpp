// SARIF golden fixture: exactly one include-hygiene finding (line 4) and
// one dead-symbol finding (line 6), so the golden stays small and
// deterministic.
#include "src/sched/schedule.hpp"

inline void f() {
  (void)sizeof(int);
}
