/**
 * @file
 * nudge(): move one GpuConfig or AppSpec field off its current value,
 * whatever its type, so tests driven by forEachField() can reach every
 * field without naming any.
 */

#ifndef SCSIM_TESTS_NUDGE_FIELD_HH
#define SCSIM_TESTS_NUDGE_FIELD_HH

#include <cstddef>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "config/gpu_config.hh"

namespace scsim {

/** Numbers +1, bools flipped, policies to the next table row, strings
 *  and division patterns one element longer. */
template <class T>
void
nudge(T &field)
{
    auto nextRow = [](const auto &table, auto policy) {
        auto i = static_cast<std::size_t>(policy);
        return table[(i + 1) % std::size(table)].policy;
    };
    if constexpr (std::is_same_v<T, bool>)
        field = !field;
    else if constexpr (std::is_same_v<T, SchedulerPolicy>)
        field = nextRow(kSchedulerPolicies, field);
    else if constexpr (std::is_same_v<T, AssignPolicy>)
        field = nextRow(kAssignPolicies, field);
    else if constexpr (std::is_same_v<T, std::string>)
        field += '~';
    else if constexpr (std::is_same_v<T, std::vector<double>>)
        field.push_back(0.5);
    else
        field += 1;
}

} // namespace scsim

#endif // SCSIM_TESTS_NUDGE_FIELD_HH
