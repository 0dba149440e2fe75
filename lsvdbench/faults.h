// Fixed-input reproductions of the program's known integrity faults.
#ifndef LSVDBENCH_FAULTS_H_
#define LSVDBENCH_FAULTS_H_

#include <cstdint>
#include <string>

namespace lsvdbench {

// Runs the fixed scenario that shows fault `name` (F1..F4, see the README)
// and prints what it returned; `seed`, when non-null, overrides the
// scenario's recorded seed. Returns the process exit code.
int RunRepro(const std::string& name, const uint64_t* seed);

}  // namespace lsvdbench

#endif  // LSVDBENCH_FAULTS_H_
