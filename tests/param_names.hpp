// Readable parameters for value-parameterised suites. ParamName{} names
// each instance (".../compare_nodes_99"), and the PrintTo overloads make
// gtest (and the ctest names it lists) print a parameter by name instead
// of its bytes ("4-byte object <03-00 00-00>").
//
//   INSTANTIATE_TEST_SUITE_P(Policies, Suite, values, test::ParamName{});
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>

#include "migration/manager.hpp"
#include "migration/policy.hpp"
#include "objsys/location_service.hpp"
#include "runtime/live_system.hpp"

namespace omig::test {

inline std::string display_name(migration::PolicyKind kind) {
  return std::string{migration::to_string(kind)};
}

inline std::string display_name(migration::AttachTransitivity t) {
  return t == migration::AttachTransitivity::ATransitive ? "a-transitive"
                                                         : "unrestricted";
}

inline std::string display_name(objsys::LocationScheme scheme) {
  return objsys::to_string(scheme);
}

inline std::string display_name(runtime::TransportKind kind) {
  switch (kind) {
    case runtime::TransportKind::InProc: return "InProc";
    case runtime::TransportKind::Tcp: return "Tcp";
    case runtime::TransportKind::AsyncTcp: return "AsyncTcp";
  }
  return "unknown";
}

inline std::string display_name(std::uint64_t seed) {
  return std::to_string(seed);
}

/// gtest names allow only [A-Za-z0-9_]: "compare-nodes" -> "compare_nodes".
template <class T>
std::string param_name(const T& param) {
  std::string out = display_name(param);
  for (char& c : out) {
    if (c == '-') c = '_';
  }
  return out;
}

/// Tuple parameters join their parts with '_'.
template <class... Ts>
std::string param_name(const std::tuple<Ts...>& params) {
  std::string out;
  std::apply(
      [&](const auto&... part) {
        ((out += (out.empty() ? "" : "_") + param_name(part)), ...);
      },
      params);
  return out;
}

/// Name generator for INSTANTIATE_TEST_SUITE_P.
struct ParamName {
  template <class T>
  std::string operator()(const ::testing::TestParamInfo<T>& info) const {
    return param_name(info.param);
  }
};

}  // namespace omig::test

// gtest finds these by argument-dependent lookup, so each sits in its
// type's namespace.
namespace omig::migration {
inline void PrintTo(PolicyKind kind, std::ostream* os) {
  *os << test::display_name(kind);
}
inline void PrintTo(AttachTransitivity t, std::ostream* os) {
  *os << test::display_name(t);
}
}  // namespace omig::migration

namespace omig::objsys {
inline void PrintTo(LocationScheme scheme, std::ostream* os) {
  *os << test::display_name(scheme);
}
}  // namespace omig::objsys

namespace omig::runtime {
inline void PrintTo(TransportKind kind, std::ostream* os) {
  *os << test::display_name(kind);
}
}  // namespace omig::runtime
