type t = {
  addr : int;
  write : bool;
}
