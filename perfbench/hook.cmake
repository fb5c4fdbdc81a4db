# Included right after the root project() call (CMAKE_PROJECT_INCLUDE):
# adds the benchmark directory to the configure of the repository root.
# Its link to eblnet_core resolves at generate time, once the root
# CMakeLists.txt has defined that target.
include_guard(GLOBAL)
add_subdirectory("${CMAKE_CURRENT_LIST_DIR}" "${CMAKE_BINARY_DIR}/perfbench")
