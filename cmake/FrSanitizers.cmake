# FR_SANITIZE accepts a semicolon- or comma-separated subset of
# {address, undefined, thread} and applies the flags globally so the
# library, tests, and tools are all instrumented consistently.
if(NOT FR_SANITIZE)
  return()
endif()

string(REPLACE "," ";" _fr_sanitizers "${FR_SANITIZE}")
foreach(_fr_sanitizer IN LISTS _fr_sanitizers)
  if(NOT _fr_sanitizer MATCHES "^(address|undefined|thread)$")
    message(FATAL_ERROR
      "FR_SANITIZE: unknown sanitizer '${_fr_sanitizer}' "
      "(expected address, undefined, or thread)")
  endif()
endforeach()
if("address" IN_LIST _fr_sanitizers AND "thread" IN_LIST _fr_sanitizers)
  message(FATAL_ERROR "FR_SANITIZE: address and thread are mutually exclusive")
endif()

string(REPLACE ";" "," _fr_sanitizer_flag "${_fr_sanitizers}")
message(STATUS "Sanitizers enabled: ${_fr_sanitizer_flag}")
add_compile_options(-fsanitize=${_fr_sanitizer_flag} -fno-omit-frame-pointer)
add_link_options(-fsanitize=${_fr_sanitizer_flag})
if("undefined" IN_LIST _fr_sanitizers)
  # A UBSan report aborts the process, so undefined behaviour fails the
  # test that hit it instead of only printing a diagnostic.
  add_compile_options(-fno-sanitize-recover=undefined)
  add_link_options(-fno-sanitize-recover=undefined)
endif()
