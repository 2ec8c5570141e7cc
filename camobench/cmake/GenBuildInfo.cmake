# Forwarder: the simulator libraries run
# ${CMAKE_SOURCE_DIR}/cmake/GenBuildInfo.cmake, which resolves here
# when camobench is the top-level project. Stamp from the repository
# root instead of this directory.
get_filename_component(SRC_DIR ${CMAKE_CURRENT_LIST_DIR}/../.. ABSOLUTE)
include(${SRC_DIR}/cmake/GenBuildInfo.cmake)
