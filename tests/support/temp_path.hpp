// Scratch paths for tests that touch the file system. Every path joins the
// running test's suite and name with the process id, so tests never share
// a file: not with each other under parallel ctest, and not with another
// run of the suite on the same machine.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>

namespace paws::testutil {

/// <temp dir>/<Suite>.<Test>.<pid><suffix>; parameterized names have
/// their '/' replaced so the result is a single path component.
inline std::filesystem::path uniqueTempPath(std::string_view suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." +
                     info->name() + "." + std::to_string(::getpid());
  std::replace(name.begin(), name.end(), '/', '_');
  name += suffix;
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace paws::testutil
