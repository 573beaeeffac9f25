# Build file of the benchmark package. It is not a project of its own: it
# is injected into the repository's own build, so the library the
# benchmark links is compiled exactly as CMakeLists.txt at the root
# compiles it (same sources, build type, flags and per-file SIMD options):
#
#   cmake -S . -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/perfbench/build.cmake
#   cmake --build .bench_build/perfbench --target wf_perfbench perfbench_selftest
#
# perfbench/run.py runs exactly these two steps. The targets are added
# once the root file has finished, when the `wayfinder` library exists.
include_guard(GLOBAL)
cmake_minimum_required(VERSION 3.19)  # cmake_language(DEFER)

function(perfbench_add_targets)
  set(dir ${CMAKE_CURRENT_FUNCTION_LIST_DIR})
  add_executable(wf_perfbench
    ${dir}/src/perfbench.cc ${dir}/src/bench_util.cc ${dir}/src/timed_searcher.cc)
  target_link_libraries(wf_perfbench PRIVATE wayfinder)
  add_executable(perfbench_selftest ${dir}/src/selftest.cc ${dir}/src/bench_util.cc)
  target_link_libraries(perfbench_selftest PRIVATE wayfinder GTest::gtest GTest::gtest_main)
  if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    target_compile_options(wf_perfbench PRIVATE -Wall -Wextra -Wshadow)
    target_compile_options(perfbench_selftest PRIVATE -Wall -Wextra -Wshadow)
  endif()
endfunction()

cmake_language(DEFER CALL perfbench_add_targets)
