# Adds the serving benchmark to the repository's own top-level build.
# Configure the repository root with this file as the qdcbir project include:
#
#   cmake -S . -B .bench_build \
#     -DCMAKE_PROJECT_qdcbir_INCLUDE=$PWD/bench_serve/project_include.cmake
#
# targets.cmake is included once the top-level CMakeLists.txt has been
# processed, so the benchmark's targets come after src/, bench/ and tools/
# and inherit the repository's flags and options (build type, SANITIZE,
# QDCBIR_OBS, build info) rather than a copy of them.
cmake_language(EVAL CODE
  "cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/targets.cmake]])")
