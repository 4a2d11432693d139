type t = { jobs : int option; exact_limit : int option }

let default = { jobs = None; exact_limit = None }
let make ?jobs ?exact_limit () = { jobs; exact_limit }
let uncached = default
let jobs t = Bg_prelude.Parallel.resolve_jobs t.jobs
