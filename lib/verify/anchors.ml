module Summary = Core.Summary

let section ctx (s : Summary.section) =
  Check.group ~name:("anchor." ^ s.Summary.name) @@ fun () ->
  List.map
    (fun (v : Summary.verdict) ->
      Check.check ~name:("anchor." ^ v.Summary.id) v.Summary.holds v.Summary.evidence)
    (s.Summary.judge ctx)

let all ctx = List.concat_map (section ctx) Summary.sections
