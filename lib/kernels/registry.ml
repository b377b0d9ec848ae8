let all = Libimf.all @ [ ("s3d_exp", S3d.exp_spec) ] @ Aek_kernels.all_specs

let find name =
  match List.assoc_opt name all with
  | Some spec -> Ok spec
  | None ->
    Error
      (Printf.sprintf "unknown kernel %S (try: %s)" name
         (String.concat ", " (List.map fst all)))

let shipped =
  [
    ("sin", ("sin_assoc", Libimf.sin_assoc_rewrite));
    ("scale", ("scale_rewrite", Aek_kernels.scale_rewrite));
    ("dot", ("dot_rewrite", Aek_kernels.dot_rewrite));
    ("add", ("add_rewrite", Aek_kernels.add_rewrite));
    ("delta", ("delta_rewrite", Aek_kernels.delta_rewrite));
  ]

let shipped_rewrite name (spec : Sandbox.Spec.t) =
  match List.assoc_opt name shipped with
  | Some r -> r
  | None -> ("self", spec.Sandbox.Spec.program)
