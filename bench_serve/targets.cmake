# The serving benchmark's targets, defined in the repository's top-level
# project (project_include.cmake includes this file), which supplies the
# qdcbir libraries, bench_common, the shipped server (qdcbir_tool) and
# trace_check with the repository's own flags and options:
#
#   cmake -S . -B .bench_build \
#     -DCMAKE_PROJECT_qdcbir_INCLUDE=$PWD/bench_serve/project_include.cmake
#   cmake --build .bench_build -j4 --target bench_serve qdcbir_tool
#
# Executables land in <build>/bench_serve.
set(BENCH_SERVE_DIR ${CMAKE_CURRENT_LIST_DIR})
set(BENCH_SERVE_BIN ${CMAKE_BINARY_DIR}/bench_serve)

add_library(bench_serve_lib STATIC
  ${BENCH_SERVE_DIR}/harness.cc
  ${BENCH_SERVE_DIR}/http_client.cc
  ${BENCH_SERVE_DIR}/layers.cc
  ${BENCH_SERVE_DIR}/server_process.cc
  ${BENCH_SERVE_DIR}/session.cc
)
target_include_directories(bench_serve_lib PUBLIC ${BENCH_SERVE_DIR})
target_link_libraries(bench_serve_lib PUBLIC bench_common qdcbir)

add_executable(bench_serve ${BENCH_SERVE_DIR}/bench_serve.cc)
target_link_libraries(bench_serve PRIVATE bench_serve_lib)

# Run with ctest --test-dir <build> -R bench_serve, after building the
# bench_serve_test and trace_check targets too.
add_executable(bench_serve_test ${BENCH_SERVE_DIR}/harness_test.cc)
target_link_libraries(bench_serve_test PRIVATE bench_serve_lib GTest::gtest
                      GTest::gtest_main)
add_test(NAME bench_serve_test COMMAND bench_serve_test)
# Every workload for 1 s plus a traced run on a 300-image corpus, then
# trace_check over the traced run's Chrome trace.
add_test(NAME bench_serve_smoke
         COMMAND sh ${BENCH_SERVE_DIR}/smoke.sh $<TARGET_FILE:bench_serve>
                 $<TARGET_FILE:trace_check> ${BENCH_SERVE_BIN}/smoke)
set_tests_properties(bench_serve_smoke PROPERTIES TIMEOUT 60)
set_target_properties(bench_serve bench_serve_test PROPERTIES
                      RUNTIME_OUTPUT_DIRECTORY ${BENCH_SERVE_BIN})
