# Runs `knitc serve --clack --json=-` and parses its stdout as JSON: the serve
# report must be the only thing written there.
#
#   cmake -DKNITC=<path> -P check_serve_json.cmake

execute_process(COMMAND ${KNITC} serve --clack --packets=200 --shards=2 --json=-
                OUTPUT_VARIABLE out RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "knitc serve exited with ${code}")
endif()

string(JSON packets ERROR_VARIABLE error GET "${out}" packets)
if(error)
  message(FATAL_ERROR "stdout of knitc serve --json=- is not one JSON document: ${error}\n"
                      "stdout was:\n${out}")
endif()
if(NOT packets EQUAL 200)
  message(FATAL_ERROR "serve report says ${packets} packets, expected 200")
endif()
